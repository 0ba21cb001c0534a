// Package refinterp is a test-side oracle: the reference tree-walking
// evaluator for the internal/semantic program dialect, whose only job is
// to be obviously correct. vm.Execute, the one engine a node ships, must
// match it on verdicts, errors, state writes, events and the exact
// gas-exhaustion point, so it charges semantic.CostStep in the order the
// compiled opcodes would run; each charge names the opcode it mirrors,
// and changing compilation order in internal/vm requires the matching
// change here. It imports neither vm nor market, so vm's in-package
// differential tests can use it.
package refinterp

import (
	"fmt"

	"pds2/internal/semantic"
)

type interp struct {
	h      semantic.Host
	req    semantic.Request
	locals []semantic.Value
	iters  uint64
}

// RunProgram executes a program against a host with the reference
// tree-walking evaluator. It is the differential oracle for
// vm.Execute: same verdicts, same errors, same host-call sequence, and
// the same gas-exhaustion point.
func RunProgram(p *semantic.Program, h semantic.Host) (semantic.Verdict, error) {
	in := &interp{h: h, req: h.Request(), locals: make([]semantic.Value, p.NumLocals)}
	for i := range in.locals {
		in.locals[i] = semantic.Bool(false)
	}
	halted, v, err := in.execBlock(p.Stmts)
	if err != nil {
		return semantic.Verdict{}, err
	}
	if halted {
		return v, nil
	}
	// Mirrors the implicit trailing OpAllow the compiler appends.
	if err := in.step(); err != nil {
		return semantic.Verdict{}, err
	}
	return semantic.Verdict{Code: semantic.VerdictOK}, nil
}

// step charges the dispatch cost of one abstract opcode.
func (in *interp) step() error { return in.h.UseGas(semantic.CostStep) }

// execBlock runs statements until one halts the program.
func (in *interp) execBlock(stmts []semantic.Stmt) (bool, semantic.Verdict, error) {
	for _, s := range stmts {
		halted, v, err := in.execStmt(s)
		if err != nil || halted {
			return halted, v, err
		}
	}
	return false, semantic.Verdict{}, nil
}

func (in *interp) execStmt(s semantic.Stmt) (bool, semantic.Verdict, error) {
	switch s := s.(type) {
	case *semantic.LetStmt:
		v, err := in.eval(s.X)
		if err != nil {
			return false, semantic.Verdict{}, err
		}
		if err := in.step(); err != nil { // OpStoreLocal
			return false, semantic.Verdict{}, err
		}
		in.locals[s.Slot] = v
		return false, semantic.Verdict{}, nil

	case *semantic.IfStmt:
		c, err := in.eval(s.Cond)
		if err != nil {
			return false, semantic.Verdict{}, err
		}
		if err := in.step(); err != nil { // OpJumpFalse
			return false, semantic.Verdict{}, err
		}
		t, err := semantic.TruthOf(c)
		if err != nil {
			return false, semantic.Verdict{}, err
		}
		if t {
			halted, v, err := in.execBlock(s.Then)
			if err != nil || halted {
				return halted, v, err
			}
			if len(s.Else) > 0 {
				if err := in.step(); err != nil { // OpJump over else
					return false, semantic.Verdict{}, err
				}
			}
			return false, semantic.Verdict{}, nil
		}
		return in.execBlock(s.Else)

	case *semantic.ForStmt:
		from, err := in.eval(s.From)
		if err != nil {
			return false, semantic.Verdict{}, err
		}
		if err := in.step(); err != nil { // OpStoreLocal i
			return false, semantic.Verdict{}, err
		}
		in.locals[s.Slot] = from
		to, err := in.eval(s.To)
		if err != nil {
			return false, semantic.Verdict{}, err
		}
		if err := in.step(); err != nil { // OpStoreLocal limit
			return false, semantic.Verdict{}, err
		}
		in.locals[s.LimitSlot] = to
		for {
			// Loop head: OpLoadLocal i, OpLoadLocal limit, OpLe,
			// OpJumpFalse.
			for j := 0; j < 3; j++ {
				if err := in.step(); err != nil {
					return false, semantic.Verdict{}, err
				}
			}
			cond, err := semantic.ApplyBinary("<=", in.locals[s.Slot], in.locals[s.LimitSlot])
			if err != nil {
				return false, semantic.Verdict{}, err
			}
			if err := in.step(); err != nil { // OpJumpFalse
				return false, semantic.Verdict{}, err
			}
			t, err := semantic.TruthOf(cond)
			if err != nil {
				return false, semantic.Verdict{}, err
			}
			if !t {
				return false, semantic.Verdict{}, nil
			}
			halted, v, err := in.execBlock(s.Body)
			if err != nil || halted {
				return halted, v, err
			}
			// Increment: OpLoadLocal i, OpPush 1, OpAdd, OpStoreLocal i.
			for j := 0; j < 3; j++ {
				if err := in.step(); err != nil {
					return false, semantic.Verdict{}, err
				}
			}
			next, err := semantic.ApplyBinary("+", in.locals[s.Slot], semantic.Number(1))
			if err != nil {
				return false, semantic.Verdict{}, err
			}
			if err := in.step(); err != nil { // OpStoreLocal i
				return false, semantic.Verdict{}, err
			}
			in.locals[s.Slot] = next
			if err := in.step(); err != nil { // OpLoop back-edge
				return false, semantic.Verdict{}, err
			}
			in.iters++
			if in.iters > semantic.MaxLoopIters {
				return false, semantic.Verdict{}, semantic.ErrLoopBound
			}
		}

	case *semantic.AllowStmt:
		if err := in.step(); err != nil { // OpAllow
			return false, semantic.Verdict{}, err
		}
		return true, semantic.Verdict{Code: semantic.VerdictOK}, nil

	case *semantic.DenyStmt:
		code, err := in.eval(s.Code)
		if err != nil {
			return false, semantic.Verdict{}, err
		}
		clause, err := in.eval(s.Clause)
		if err != nil {
			return false, semantic.Verdict{}, err
		}
		if err := in.step(); err != nil { // OpDeny
			return false, semantic.Verdict{}, err
		}
		v, err := semantic.DenyVerdict(code, clause)
		if err != nil {
			return false, semantic.Verdict{}, err
		}
		return true, v, nil

	case *semantic.EmitStmt:
		args := make([]semantic.Value, len(s.Args))
		for i, a := range s.Args {
			v, err := in.eval(a)
			if err != nil {
				return false, semantic.Verdict{}, err
			}
			args[i] = v
		}
		if err := in.step(); err != nil { // OpEmit
			return false, semantic.Verdict{}, err
		}
		return false, semantic.Verdict{}, semantic.HostEmit(in.h, s.Topic, args)

	case *semantic.StoreStmt:
		key, err := in.eval(s.Key)
		if err != nil {
			return false, semantic.Verdict{}, err
		}
		val, err := in.eval(s.Val)
		if err != nil {
			return false, semantic.Verdict{}, err
		}
		if err := in.step(); err != nil { // OpStore
			return false, semantic.Verdict{}, err
		}
		return false, semantic.Verdict{}, semantic.HostStore(in.h, key, val)
	}
	return false, semantic.Verdict{}, fmt.Errorf("program: unknown statement %T", s)
}

func (in *interp) eval(e semantic.PExpr) (semantic.Value, error) {
	switch e := e.(type) {
	case *semantic.LitExpr:
		if err := in.step(); err != nil { // OpPush
			return semantic.Value{}, err
		}
		return e.V, nil

	case *semantic.VarExpr:
		if err := in.step(); err != nil { // OpLoadLocal
			return semantic.Value{}, err
		}
		return in.locals[e.Slot], nil

	case *semantic.ReqExpr:
		if err := in.step(); err != nil { // OpLoadReq
			return semantic.Value{}, err
		}
		return semantic.ReqValue(in.req, e.Field), nil

	case *semantic.UnExpr:
		x, err := in.eval(e.X)
		if err != nil {
			return semantic.Value{}, err
		}
		if err := in.step(); err != nil { // OpNot / OpNeg
			return semantic.Value{}, err
		}
		return semantic.ApplyUnary(e.Op, x)

	case *semantic.BinExpr:
		switch e.Op {
		case "and", "or":
			// Compiled as X; JumpFalse/JumpTrue L; Y; Jump end;
			// L: Push false/true; end: — so the short-circuit path
			// costs two steps after X, the long path one step after Y.
			x, err := in.eval(e.X)
			if err != nil {
				return semantic.Value{}, err
			}
			if err := in.step(); err != nil { // OpJumpFalse / OpJumpTrue
				return semantic.Value{}, err
			}
			t, err := semantic.TruthOf(x)
			if err != nil {
				return semantic.Value{}, err
			}
			if (e.Op == "and" && !t) || (e.Op == "or" && t) {
				if err := in.step(); err != nil { // OpPush short-circuit value
					return semantic.Value{}, err
				}
				return semantic.Bool(t), nil
			}
			y, err := in.eval(e.Y)
			if err != nil {
				return semantic.Value{}, err
			}
			if err := in.step(); err != nil { // OpJump past the push
				return semantic.Value{}, err
			}
			return y, nil
		}
		x, err := in.eval(e.X)
		if err != nil {
			return semantic.Value{}, err
		}
		y, err := in.eval(e.Y)
		if err != nil {
			return semantic.Value{}, err
		}
		if err := in.step(); err != nil { // the binary opcode
			return semantic.Value{}, err
		}
		return semantic.ApplyBinary(e.Op, x, y)

	case *semantic.CallExpr:
		args := make([]semantic.Value, len(e.Args))
		for i, a := range e.Args {
			v, err := in.eval(a)
			if err != nil {
				return semantic.Value{}, err
			}
			args[i] = v
		}
		if err := in.step(); err != nil { // the host-call opcode
			return semantic.Value{}, err
		}
		switch e.Fn {
		case "load":
			return semantic.HostLoad(in.h, args[0])
		case "clauseof":
			return semantic.ClauseOfValue(args[0])
		case "evaluate":
			return semantic.HostEvalBuiltin(in.h, args)
		}
		return semantic.Value{}, fmt.Errorf("program: unknown builtin %q", e.Fn)
	}
	return semantic.Value{}, fmt.Errorf("program: unknown expression %T", e)
}
