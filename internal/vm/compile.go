package vm

import (
	"fmt"

	"pds2/internal/semantic"
)

// Compile lowers a parsed program to a bytecode module. Compilation is
// deterministic: the same program yields byte-identical code (the
// on-chain deployPolicy verifier depends on this to re-derive the
// bytecode from the embedded source).
//
// The opcode layout per construct is load-bearing: the reference
// evaluator (internal/proptest/refinterp) charges gas in exactly this
// sequence, which is what makes the gas-exhaustion point differential
// property hold. Change one side only with the other.
func Compile(p *semantic.Program) (*Module, error) {
	c := &compiler{constIdx: make(map[string]int)}
	if err := c.stmts(p.Stmts); err != nil {
		return nil, err
	}
	// Implicit allow on falling off the end; also guarantees the last
	// instruction halts, which the static verifier requires.
	c.emit(OpAllow)
	m := &Module{
		NumLocals: p.NumLocals,
		Consts:    c.consts,
		Code:      c.code,
		Source:    p.Source,
	}
	if err := Verify(m); err != nil {
		return nil, fmt.Errorf("vm: compiler produced invalid code: %w", err)
	}
	return m, nil
}

// CompileSource parses and compiles program source in one step.
func CompileSource(src string) (*Module, error) {
	p, err := semantic.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	return Compile(p)
}

type compiler struct {
	consts   []semantic.Value
	constIdx map[string]int
	code     []byte
}

// constIndex interns a constant, returning its pool index.
func (c *compiler) constIndex(v semantic.Value) (int, error) {
	key := fmt.Sprintf("%d|%s", v.Kind, v.String())
	if i, ok := c.constIdx[key]; ok {
		return i, nil
	}
	if len(c.consts) >= MaxConsts {
		return 0, fmt.Errorf("vm: constant pool exceeds %d entries", MaxConsts)
	}
	i := len(c.consts)
	c.consts = append(c.consts, v)
	c.constIdx[key] = i
	return i, nil
}

func (c *compiler) emit(op Op, operands ...byte) {
	c.code = append(c.code, byte(op))
	c.code = append(c.code, operands...)
}

func (c *compiler) emitU16(op Op, v int) {
	c.emit(op, byte(v>>8), byte(v))
}

// emitJump emits a jump with a placeholder target and returns the
// operand offset for patch.
func (c *compiler) emitJump(op Op) int {
	c.emit(op, 0xff, 0xff)
	return len(c.code) - 2
}

// patch points a previously emitted jump at the current code position.
func (c *compiler) patch(at int) {
	target := len(c.code)
	c.code[at] = byte(target >> 8)
	c.code[at+1] = byte(target)
}

func (c *compiler) stmts(list []semantic.Stmt) error {
	for _, s := range list {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) stmt(s semantic.Stmt) error {
	switch s := s.(type) {
	case *semantic.LetStmt:
		if err := c.expr(s.X); err != nil {
			return err
		}
		c.emit(OpStoreLocal, byte(s.Slot))
		return nil

	case *semantic.IfStmt:
		if err := c.expr(s.Cond); err != nil {
			return err
		}
		jf := c.emitJump(OpJumpFalse)
		if err := c.stmts(s.Then); err != nil {
			return err
		}
		if len(s.Else) > 0 {
			end := c.emitJump(OpJump)
			c.patch(jf)
			if err := c.stmts(s.Else); err != nil {
				return err
			}
			c.patch(end)
		} else {
			c.patch(jf)
		}
		return nil

	case *semantic.ForStmt:
		if err := c.expr(s.From); err != nil {
			return err
		}
		c.emit(OpStoreLocal, byte(s.Slot))
		if err := c.expr(s.To); err != nil {
			return err
		}
		c.emit(OpStoreLocal, byte(s.LimitSlot))
		top := len(c.code)
		c.emit(OpLoadLocal, byte(s.Slot))
		c.emit(OpLoadLocal, byte(s.LimitSlot))
		c.emit(OpLe)
		jf := c.emitJump(OpJumpFalse)
		if err := c.stmts(s.Body); err != nil {
			return err
		}
		one, err := c.constIndex(semantic.Number(1))
		if err != nil {
			return err
		}
		c.emit(OpLoadLocal, byte(s.Slot))
		c.emitU16(OpPush, one)
		c.emit(OpAdd)
		c.emit(OpStoreLocal, byte(s.Slot))
		c.emitU16(OpLoop, top)
		c.patch(jf)
		return nil

	case *semantic.AllowStmt:
		c.emit(OpAllow)
		return nil

	case *semantic.DenyStmt:
		if err := c.expr(s.Code); err != nil {
			return err
		}
		if err := c.expr(s.Clause); err != nil {
			return err
		}
		c.emit(OpDeny)
		return nil

	case *semantic.EmitStmt:
		topic, err := c.constIndex(semantic.String(s.Topic))
		if err != nil {
			return err
		}
		for _, a := range s.Args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		c.emit(OpEmit, byte(topic>>8), byte(topic), byte(len(s.Args)))
		return nil

	case *semantic.StoreStmt:
		if err := c.expr(s.Key); err != nil {
			return err
		}
		if err := c.expr(s.Val); err != nil {
			return err
		}
		c.emit(OpStore)
		return nil
	}
	return fmt.Errorf("vm: unknown statement %T", s)
}

func (c *compiler) expr(e semantic.PExpr) error {
	switch e := e.(type) {
	case *semantic.LitExpr:
		idx, err := c.constIndex(e.V)
		if err != nil {
			return err
		}
		c.emitU16(OpPush, idx)
		return nil

	case *semantic.VarExpr:
		c.emit(OpLoadLocal, byte(e.Slot))
		return nil

	case *semantic.ReqExpr:
		c.emit(OpLoadReq, byte(e.Field))
		return nil

	case *semantic.UnExpr:
		if err := c.expr(e.X); err != nil {
			return err
		}
		if e.Op == "not" {
			c.emit(OpNot)
		} else {
			c.emit(OpNeg)
		}
		return nil

	case *semantic.BinExpr:
		switch e.Op {
		case "and", "or":
			// X; JumpFalse/JumpTrue sc; Y; Jump end; sc: Push bool; end:
			if err := c.expr(e.X); err != nil {
				return err
			}
			op := OpJumpFalse
			if e.Op == "or" {
				op = OpJumpTrue
			}
			sc := c.emitJump(op)
			if err := c.expr(e.Y); err != nil {
				return err
			}
			end := c.emitJump(OpJump)
			c.patch(sc)
			idx, err := c.constIndex(semantic.Bool(e.Op == "or"))
			if err != nil {
				return err
			}
			c.emitU16(OpPush, idx)
			c.patch(end)
			return nil
		}
		if err := c.expr(e.X); err != nil {
			return err
		}
		if err := c.expr(e.Y); err != nil {
			return err
		}
		op, ok := binOpFor[e.Op]
		if !ok {
			return fmt.Errorf("vm: unknown operator %q", e.Op)
		}
		c.emit(op)
		return nil

	case *semantic.CallExpr:
		for _, a := range e.Args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		switch e.Fn {
		case "load":
			c.emit(OpLoad)
		case "clauseof":
			c.emit(OpClauseOf)
		case "evaluate":
			c.emit(OpEvalPolicy)
		default:
			return fmt.Errorf("vm: unknown builtin %q", e.Fn)
		}
		return nil
	}
	return fmt.Errorf("vm: unknown expression %T", e)
}
