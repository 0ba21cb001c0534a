package vm

import (
	"fmt"

	"pds2/internal/semantic"
	"pds2/internal/telemetry"
)

// Dispatch-loop telemetry: per-execution and per-opcode counters, and
// an error counter.
var (
	mRuns   = telemetry.C("vm.dispatch.runs_total")
	mSteps  = telemetry.C("vm.dispatch.steps_total")
	mErrors = telemetry.C("vm.dispatch.errors_total")
)

var (
	errUnderflow = fmt.Errorf("vm: stack underflow")
	errOverflow  = fmt.Errorf("vm: stack overflow")
)

// Execute runs a verified module against a host. It is the bytecode
// twin of the reference evaluator refinterp.RunProgram
// (internal/proptest/refinterp): same Host contract, same verdicts, same
// error text, same gas charge sequence. The dispatch loop carries the
// pprof component label vm.exec so profiles attribute VM time.
//
// Callers must pass modules obtained from Decode or Compile (both
// verify); Execute still bounds the stack and counts loop edges, so
// even hand-forged code that slips through cannot run away — but
// operand bounds are the verifier's job.
func Execute(m *Module, h semantic.Host) (semantic.Verdict, error) {
	var v semantic.Verdict
	var err error
	telemetry.WithComponent("vm.exec", func() {
		v, err = run(m, h)
	})
	if err != nil {
		mErrors.Inc()
	}
	return v, err
}

// run is the dispatch loop. Stack manipulation is inlined (no closure
// calls) and the operand stack is reused across pops and pushes —
// this loop is a per-workload hot path, benchmarked by
// BenchmarkVMDispatch.
func run(m *Module, h semantic.Host) (semantic.Verdict, error) {
	mRuns.Inc()
	req := h.Request()
	locals := make([]semantic.Value, m.NumLocals)
	for i := range locals {
		locals[i] = semantic.Bool(false)
	}
	stack := make([]semantic.Value, 0, 16)
	var iters uint64
	var steps uint64
	defer func() { mSteps.Add(steps) }()

	code := m.Code
	for pc := 0; pc < len(code); {
		op := Op(code[pc])
		steps++
		if err := h.UseGas(semantic.CostStep); err != nil {
			return semantic.Verdict{}, err
		}
		switch op {
		case OpPush:
			if len(stack) >= MaxStack {
				return semantic.Verdict{}, errOverflow
			}
			stack = append(stack, m.Consts[u16(code, pc+1)])
			pc += 3

		case OpLoadLocal:
			if len(stack) >= MaxStack {
				return semantic.Verdict{}, errOverflow
			}
			stack = append(stack, locals[code[pc+1]])
			pc += 2

		case OpStoreLocal:
			if len(stack) == 0 {
				return semantic.Verdict{}, errUnderflow
			}
			locals[code[pc+1]] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			pc += 2

		case OpLoadReq:
			if len(stack) >= MaxStack {
				return semantic.Verdict{}, errOverflow
			}
			stack = append(stack, semantic.ReqValue(req, semantic.ReqField(code[pc+1])))
			pc += 2

		case OpNot, OpNeg:
			if len(stack) == 0 {
				return semantic.Verdict{}, errUnderflow
			}
			name := "not"
			if op == OpNeg {
				name = "-"
			}
			r, err := semantic.ApplyUnary(name, stack[len(stack)-1])
			if err != nil {
				return semantic.Verdict{}, err
			}
			stack[len(stack)-1] = r
			pc++

		case OpAdd, OpSub, OpMul, OpDiv, OpMod,
			OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpContains, OpIsa:
			if len(stack) < 2 {
				return semantic.Verdict{}, errUnderflow
			}
			x, y := stack[len(stack)-2], stack[len(stack)-1]
			r, err := semantic.ApplyBinary(binOpName[op], x, y)
			if err != nil {
				return semantic.Verdict{}, err
			}
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] = r
			pc++

		case OpJump:
			pc = u16(code, pc+1)

		case OpJumpFalse, OpJumpTrue:
			if len(stack) == 0 {
				return semantic.Verdict{}, errUnderflow
			}
			t, err := semantic.TruthOf(stack[len(stack)-1])
			if err != nil {
				return semantic.Verdict{}, err
			}
			stack = stack[:len(stack)-1]
			if t == (op == OpJumpTrue) {
				pc = u16(code, pc+1)
			} else {
				pc += 3
			}

		case OpLoop:
			iters++
			if iters > semantic.MaxLoopIters {
				return semantic.Verdict{}, semantic.ErrLoopBound
			}
			pc = u16(code, pc+1)

		case OpLoad:
			if len(stack) == 0 {
				return semantic.Verdict{}, errUnderflow
			}
			v, err := semantic.HostLoad(h, stack[len(stack)-1])
			if err != nil {
				return semantic.Verdict{}, err
			}
			stack[len(stack)-1] = v
			pc++

		case OpStore:
			if len(stack) < 2 {
				return semantic.Verdict{}, errUnderflow
			}
			key, val := stack[len(stack)-2], stack[len(stack)-1]
			stack = stack[:len(stack)-2]
			if err := semantic.HostStore(h, key, val); err != nil {
				return semantic.Verdict{}, err
			}
			pc++

		case OpEmit:
			topic := m.Consts[u16(code, pc+1)].S
			argc := int(code[pc+3])
			if argc > len(stack) {
				return semantic.Verdict{}, errUnderflow
			}
			args := make([]semantic.Value, argc)
			copy(args, stack[len(stack)-argc:])
			stack = stack[:len(stack)-argc]
			if err := semantic.HostEmit(h, topic, args); err != nil {
				return semantic.Verdict{}, err
			}
			pc += 4

		case OpEvalPolicy:
			if len(stack) < 5 {
				return semantic.Verdict{}, errUnderflow
			}
			var args [5]semantic.Value
			copy(args[:], stack[len(stack)-5:])
			stack = stack[:len(stack)-5]
			v, err := semantic.HostEvalBuiltin(h, args[:])
			if err != nil {
				return semantic.Verdict{}, err
			}
			stack = append(stack, v)
			pc++

		case OpClauseOf:
			if len(stack) == 0 {
				return semantic.Verdict{}, errUnderflow
			}
			r, err := semantic.ClauseOfValue(stack[len(stack)-1])
			if err != nil {
				return semantic.Verdict{}, err
			}
			stack[len(stack)-1] = r
			pc++

		case OpAllow:
			return semantic.Verdict{Code: semantic.VerdictOK}, nil

		case OpDeny:
			if len(stack) < 2 {
				return semantic.Verdict{}, errUnderflow
			}
			return semantic.DenyVerdict(stack[len(stack)-2], stack[len(stack)-1])

		default:
			return semantic.Verdict{}, fmt.Errorf("vm: invalid opcode 0x%02x at %d", byte(op), pc)
		}
	}
	// Unreachable for verified code: the last instruction halts.
	return semantic.Verdict{}, fmt.Errorf("vm: execution fell off the end")
}

func u16(code []byte, at int) int {
	return int(code[at])<<8 | int(code[at+1])
}
