// Package vm compiles the internal/semantic program dialect to a small
// stack-machine bytecode and executes it with a deterministic,
// gas-metered interpreter. The VM charges semantic.CostStep per opcode
// against the journaled contract runtime's gas accounting, so an
// out-of-gas program reverts through the journal like any other
// contract failure. Correctness is established differentially: every
// value operation, host call, and error string is shared with the
// reference tree-walking evaluator (refinterp.RunProgram, in
// internal/proptest/refinterp), and the compiler's opcode layout
// mirrors the reference evaluator's charge discipline exactly —
// verdicts, state writes, events, errors, and the precise
// gas-exhaustion point must all agree, and the test suite enforces it
// on randomized programs.
package vm

// Op is one bytecode opcode. Operand widths are fixed per opcode:
// u16 big-endian for constant indexes and jump targets, u8 for local
// slots, request fields and emit arity.
type Op byte

// The instruction set. Control flow is split into forward-only jumps
// (OpJump/OpJumpFalse/OpJumpTrue) and the backward-only loop edge
// (OpLoop): the static verifier enforces the directions, and the
// interpreter counts OpLoop executions against semantic.MaxLoopIters —
// together with gas metering this proves every program terminates.
const (
	opInvalid Op = iota

	// OpPush pushes constant-pool entry u16.
	OpPush
	// OpLoadLocal pushes local slot u8.
	OpLoadLocal
	// OpStoreLocal pops into local slot u8.
	OpStoreLocal
	// OpLoadReq pushes request field u8 (semantic.ReqField order).
	OpLoadReq

	// OpNot / OpNeg apply the unary operators.
	OpNot
	OpNeg

	// Binary operators: pop y, pop x, push x∘y.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpContains
	OpIsa

	// OpJump jumps forward to absolute offset u16.
	OpJump
	// OpJumpFalse pops a bool and jumps forward when false.
	OpJumpFalse
	// OpJumpTrue pops a bool and jumps forward when true.
	OpJumpTrue
	// OpLoop jumps backward to absolute offset u16 (counted loop edge).
	OpLoop

	// OpLoad pops a key and pushes the stored value (host call).
	OpLoad
	// OpStore pops value then key and writes the partition (host call).
	OpStore
	// OpEmit emits topic constant u16 with u8 popped args (host call).
	OpEmit
	// OpEvalPolicy pops the five evaluate() args and pushes the
	// decision code (host call into policy.Evaluate).
	OpEvalPolicy
	// OpClauseOf pops a decision code and pushes its clause.
	OpClauseOf

	// OpAllow halts with the allow verdict.
	OpAllow
	// OpDeny pops clause then code and halts with a deny verdict.
	OpDeny

	opMax // one past the last valid opcode
)

var opNames = map[Op]string{
	OpPush: "push", OpLoadLocal: "loadl", OpStoreLocal: "storel",
	OpLoadReq: "loadreq", OpNot: "not", OpNeg: "neg",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpContains: "contains", OpIsa: "isa",
	OpJump: "jmp", OpJumpFalse: "jf", OpJumpTrue: "jt", OpLoop: "loop",
	OpLoad: "load", OpStore: "store", OpEmit: "emit",
	OpEvalPolicy: "evalpolicy", OpClauseOf: "clauseof",
	OpAllow: "allow", OpDeny: "deny",
}

// String returns the mnemonic.
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return "invalid"
}

// binOpName maps binary opcodes to the shared semantic.ApplyBinary
// operator names, which keeps error text identical across engines. An
// array, not a map: it sits on the dispatch hot path.
var binOpName = [opMax]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpContains: "contains", OpIsa: "isa",
}

var binOpFor = map[string]Op{}

func init() {
	for op, name := range binOpName {
		if name != "" {
			binOpFor[name] = Op(op)
		}
	}
}

// operandWidth returns the operand byte count of an opcode, or -1 for
// invalid opcodes.
func operandWidth(o Op) int {
	switch o {
	case OpPush, OpJump, OpJumpFalse, OpJumpTrue, OpLoop:
		return 2
	case OpLoadLocal, OpStoreLocal, OpLoadReq:
		return 1
	case OpEmit:
		return 3 // u16 topic constant + u8 arity
	}
	if o > opInvalid && o < opMax {
		return 0
	}
	return -1
}
