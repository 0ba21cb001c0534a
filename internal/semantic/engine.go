package semantic

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// This file is what every engine for the program dialect shares: the
// Host contract, the request and verdict types, the cost discipline
// (CostStep per abstract machine step, charged before the step's work),
// and all value operations, host-call plumbing and error constructors.
// The bytecode VM in internal/vm is the engine a node runs; the
// reference tree-walking evaluator it is differentially tested against
// lives behind the test boundary in internal/proptest/refinterp. Both
// call these functions, so a single implementation cannot diverge, and
// error text is part of the contract (receipts carry it).

// CostStep is the gas charged for one VM dispatch step — and, in the
// reference evaluator, for the abstract step mirroring it.
const CostStep uint64 = 2

// MaxLoopIters bounds the total number of loop back-edges one execution
// may take; combined with forward-only jumps it proves termination even
// under an unbounded gas budget.
const MaxLoopIters = 1 << 16

// ErrLoopBound is returned when an execution exceeds MaxLoopIters
// back-edges.
var ErrLoopBound = errors.New("program: loop iteration bound exceeded")

// VerdictOK is the decision code of an allow verdict (mirrors
// policy.CodeOK without importing internal/policy).
const VerdictOK = "ok"

// Verdict is the outcome of a policy program: a decision code and, for
// denials, the clause blamed.
type Verdict struct {
	Code   string
	Clause string
}

// Allowed reports whether the verdict permits the request.
func (v Verdict) Allowed() bool { return v.Code == VerdictOK }

// Request is the evaluation input a policy program reads through the
// layer/class/purpose/agg/height/uses variables.
type Request struct {
	Layer       string
	Class       string
	Purpose     string
	Aggregation uint64
	Height      uint64
	Invocations uint64
}

// Host is the execution environment of a policy program: gas accounting,
// the request under evaluation, a state partition, event emission, and
// the built-in five-clause evaluator. Both the reference evaluator and
// the bytecode VM run against the same Host, so gas charged inside host
// calls is engine-independent by construction.
type Host interface {
	// UseGas charges n gas, returning the runtime's out-of-gas error
	// once the budget is exhausted.
	UseGas(n uint64) error
	// Request returns the request under evaluation.
	Request() Request
	// Load reads a key from the program's state partition; a nil/empty
	// result means absent.
	Load(key string) ([]byte, error)
	// Store writes a key in the program's state partition.
	Store(key string, val []byte) error
	// EmitEvent appends an event with the given topic and payload.
	EmitEvent(topic string, data []byte) error
	// EvalBuiltin runs the built-in five-clause policy evaluator and
	// returns the decision code.
	EvalBuiltin(classes []string, minAgg, expiry uint64, purposes []string, maxInv uint64) (string, error)
}

// --- shared value operations (used verbatim by internal/vm) ---

// MaxStateKeyLen caps program storage keys.
const MaxStateKeyLen = 256

func errNonBool(v Value) error {
	return fmt.Errorf("program: condition must be a bool, got %s", v)
}

func errBinaryType(op string, a, b Value) error {
	return fmt.Errorf("program: cannot apply %q to %s and %s", op, a, b)
}

// ErrDivisionByZero is returned by / and % with a zero divisor.
var ErrDivisionByZero = errors.New("program: division by zero")

// TruthOf coerces a condition value, failing on non-booleans.
func TruthOf(v Value) (bool, error) {
	if v.Kind != KindBool {
		return false, errNonBool(v)
	}
	return v.B, nil
}

// ApplyUnary applies "not" or unary "-".
func ApplyUnary(op string, v Value) (Value, error) {
	switch op {
	case "not":
		if v.Kind != KindBool {
			return Value{}, fmt.Errorf("program: cannot apply %q to %s", op, v)
		}
		return Bool(!v.B), nil
	case "-":
		if v.Kind != KindNumber {
			return Value{}, fmt.Errorf("program: cannot apply %q to %s", op, v)
		}
		return Number(-v.N), nil
	}
	return Value{}, fmt.Errorf("program: unknown unary operator %q", op)
}

// ApplyBinary applies a non-short-circuit binary operator.
func ApplyBinary(op string, a, b Value) (Value, error) {
	switch op {
	case "+":
		if a.Kind == KindNumber && b.Kind == KindNumber {
			return Number(a.N + b.N), nil
		}
		if a.Kind == KindString && b.Kind == KindString {
			return String(a.S + b.S), nil
		}
		return Value{}, errBinaryType(op, a, b)
	case "-", "*":
		if a.Kind != KindNumber || b.Kind != KindNumber {
			return Value{}, errBinaryType(op, a, b)
		}
		if op == "-" {
			return Number(a.N - b.N), nil
		}
		return Number(a.N * b.N), nil
	case "/", "%":
		if a.Kind != KindNumber || b.Kind != KindNumber {
			return Value{}, errBinaryType(op, a, b)
		}
		if b.N == 0 {
			return Value{}, ErrDivisionByZero
		}
		if op == "/" {
			return Number(a.N / b.N), nil
		}
		return Number(math.Mod(a.N, b.N)), nil
	case "==":
		return Bool(a.Equal(b)), nil
	case "!=":
		return Bool(!a.Equal(b)), nil
	case "<", "<=", ">", ">=":
		if a.Kind == KindNumber && b.Kind == KindNumber {
			return Bool(cmpOrder(op, a.N < b.N, a.N == b.N)), nil
		}
		if a.Kind == KindString && b.Kind == KindString {
			return Bool(cmpOrder(op, a.S < b.S, a.S == b.S)), nil
		}
		return Value{}, errBinaryType(op, a, b)
	case "contains":
		return Bool(a.Kind == KindString && b.Kind == KindString &&
			strings.Contains(a.S, b.S)), nil
	case "isa":
		// Same ontology subsumption as the predicate dialect.
		if a.Kind != KindString || b.Kind != KindString {
			return Bool(false), nil
		}
		return Bool(a.S == b.S || strings.HasPrefix(a.S, b.S+".")), nil
	}
	return Value{}, fmt.Errorf("program: unknown operator %q", op)
}

func cmpOrder(op string, lt, eq bool) bool {
	switch op {
	case "<":
		return lt
	case "<=":
		return lt || eq
	case ">":
		return !lt && !eq
	default: // ">="
		return !lt
	}
}

// ReqValue projects one field of the request as a Value.
func ReqValue(req Request, f ReqField) Value {
	switch f {
	case ReqLayer:
		return String(req.Layer)
	case ReqClass:
		return String(req.Class)
	case ReqPurpose:
		return String(req.Purpose)
	case ReqAgg:
		return Number(float64(req.Aggregation))
	case ReqHeight:
		return Number(float64(req.Height))
	default: // ReqUses
		return Number(float64(req.Invocations))
	}
}

// --- stored value / event payload codec ---

// Stored-value tags.
const (
	tagString byte = 1
	tagNumber byte = 2
	tagBool   byte = 3
)

// EncodeValue serializes a Value for program state storage; the result
// is never empty, so "stored false" and "absent" stay distinct.
func EncodeValue(v Value) []byte {
	switch v.Kind {
	case KindString:
		return append([]byte{tagString}, v.S...)
	case KindNumber:
		bits := math.Float64bits(v.N)
		return []byte{tagNumber,
			byte(bits >> 56), byte(bits >> 48), byte(bits >> 40), byte(bits >> 32),
			byte(bits >> 24), byte(bits >> 16), byte(bits >> 8), byte(bits)}
	default:
		if v.B {
			return []byte{tagBool, 1}
		}
		return []byte{tagBool, 0}
	}
}

// DecodeValue reverses EncodeValue.
func DecodeValue(b []byte) (Value, error) {
	if len(b) == 0 {
		return Value{}, fmt.Errorf("program: empty stored value")
	}
	switch b[0] {
	case tagString:
		return String(string(b[1:])), nil
	case tagNumber:
		if len(b) != 9 {
			return Value{}, fmt.Errorf("program: malformed stored number")
		}
		bits := uint64(b[1])<<56 | uint64(b[2])<<48 | uint64(b[3])<<40 | uint64(b[4])<<32 |
			uint64(b[5])<<24 | uint64(b[6])<<16 | uint64(b[7])<<8 | uint64(b[8])
		return Number(math.Float64frombits(bits)), nil
	case tagBool:
		if len(b) != 2 {
			return Value{}, fmt.Errorf("program: malformed stored bool")
		}
		return Bool(b[1] != 0), nil
	}
	return Value{}, fmt.Errorf("program: unknown stored value tag %d", b[0])
}

// EncodeEventData frames emit arguments as length-prefixed encoded
// values.
func EncodeEventData(args []Value) []byte {
	var out []byte
	for _, v := range args {
		ev := EncodeValue(v)
		out = append(out, byte(len(ev)>>8), byte(len(ev)))
		out = append(out, ev...)
	}
	return out
}

// --- shared host-call plumbing ---

func stateKey(key Value) (string, error) {
	if key.Kind != KindString {
		return "", fmt.Errorf("program: storage key must be a string, got %s", key)
	}
	if len(key.S) > MaxStateKeyLen {
		return "", fmt.Errorf("program: storage key exceeds %d bytes", MaxStateKeyLen)
	}
	return key.S, nil
}

// HostLoad reads a value from the host state partition; absent keys read
// as false.
func HostLoad(h Host, key Value) (Value, error) {
	k, err := stateKey(key)
	if err != nil {
		return Value{}, err
	}
	raw, err := h.Load(k)
	if err != nil {
		return Value{}, err
	}
	if len(raw) == 0 {
		return Bool(false), nil
	}
	v, err := DecodeValue(raw)
	if err != nil {
		return Value{}, fmt.Errorf("program: corrupt stored value at key %q", k)
	}
	return v, nil
}

// HostStore writes a value into the host state partition.
func HostStore(h Host, key, val Value) error {
	k, err := stateKey(key)
	if err != nil {
		return err
	}
	return h.Store(k, EncodeValue(val))
}

// HostEmit encodes and emits a program event.
func HostEmit(h Host, topic string, args []Value) error {
	return h.EmitEvent(topic, EncodeEventData(args))
}

// valueUint converts an evaluate() argument to a non-negative integer.
func valueUint(v Value, what string) (uint64, error) {
	if v.Kind != KindNumber || v.N < 0 || v.N != math.Trunc(v.N) || v.N > 1<<53 {
		return 0, fmt.Errorf("program: evaluate %s must be a non-negative integer, got %s", what, v)
	}
	return uint64(v.N), nil
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// HostEvalBuiltin validates and dispatches an evaluate(classes, minagg,
// expiry, purposes, maxinv) call, returning the decision code as a
// string value.
func HostEvalBuiltin(h Host, args []Value) (Value, error) {
	if args[0].Kind != KindString || args[3].Kind != KindString {
		return Value{}, fmt.Errorf("program: evaluate classes and purposes must be strings, got %s and %s", args[0], args[3])
	}
	minAgg, err := valueUint(args[1], "minagg")
	if err != nil {
		return Value{}, err
	}
	expiry, err := valueUint(args[2], "expiry")
	if err != nil {
		return Value{}, err
	}
	maxInv, err := valueUint(args[4], "maxinv")
	if err != nil {
		return Value{}, err
	}
	code, err := h.EvalBuiltin(splitCSV(args[0].S), minAgg, expiry, splitCSV(args[3].S), maxInv)
	if err != nil {
		return Value{}, err
	}
	return String(code), nil
}

// ClauseOf maps a decision code to the policy clause it blames,
// mirroring internal/policy's code→clause pairing without the import.
func ClauseOf(code string) string {
	switch code {
	case "policy_expired":
		return "expiry_height"
	case "class_forbidden":
		return "allowed_classes"
	case "purpose_mismatch":
		return "purposes"
	case "aggregation_floor":
		return "min_aggregation"
	case "invocations_exhausted":
		return "max_invocations"
	}
	return ""
}

// ClauseOfValue is the clauseof(code) builtin.
func ClauseOfValue(v Value) (Value, error) {
	if v.Kind != KindString {
		return Value{}, fmt.Errorf("program: clauseof needs a string, got %s", v)
	}
	return String(ClauseOf(v.S)), nil
}

// DenyVerdict validates deny operands and builds the verdict.
func DenyVerdict(code, clause Value) (Verdict, error) {
	if code.Kind != KindString || clause.Kind != KindString {
		return Verdict{}, fmt.Errorf("program: deny needs string code and clause, got %s and %s", code, clause)
	}
	return Verdict{Code: code.S, Clause: clause.S}, nil
}
