package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/policy"
	"pds2/internal/proptest/refinterp"
	"pds2/internal/semantic"
)

// diffHost is an instrumented in-memory Host recording everything both
// engines do: gas consumption, ordered state writes, final state, and
// emitted events. Two hosts with the same inputs must end byte-equal
// when the engines agree.
type diffHost struct {
	gas    uint64
	req    semantic.Request
	state  map[string][]byte
	writes []string
	events []diffEvent
}

type diffEvent struct {
	Topic string
	Data  string
}

func newDiffHost(gas uint64, req semantic.Request, seedState map[string][]byte) *diffHost {
	st := make(map[string][]byte)
	for k, v := range seedState {
		st[k] = append([]byte(nil), v...)
	}
	return &diffHost{gas: gas, req: req, state: st}
}

func (h *diffHost) UseGas(n uint64) error {
	if h.gas < n {
		h.gas = 0
		return contract.ErrOutOfGas
	}
	h.gas -= n
	return nil
}
func (h *diffHost) Request() semantic.Request { return h.req }
func (h *diffHost) Load(key string) ([]byte, error) {
	// Charge like contract.Context.Get.
	if err := h.UseGas(contract.GasSload); err != nil {
		return nil, err
	}
	return h.state[key], nil
}
func (h *diffHost) Store(key string, val []byte) error {
	if err := h.UseGas(contract.GasSstore); err != nil {
		return err
	}
	h.state[key] = append([]byte(nil), val...)
	h.writes = append(h.writes, key)
	return nil
}
func (h *diffHost) EmitEvent(topic string, data []byte) error {
	if err := h.UseGas(contract.GasLogBase + contract.GasLogPerByte*uint64(len(topic)+len(data))); err != nil {
		return err
	}
	h.events = append(h.events, diffEvent{Topic: topic, Data: string(data)})
	return nil
}
func (h *diffHost) EvalBuiltin(classes []string, minAgg, expiry uint64, purposes []string, maxInv uint64) (string, error) {
	if err := h.UseGas(GasEvalBuiltin); err != nil {
		return "", err
	}
	dec := policy.Evaluate(&policy.Policy{
		AllowedClasses: classes, MinAggregation: minAgg, ExpiryHeight: expiry,
		Purposes: purposes, MaxInvocations: maxInv,
	}, policy.Request{
		Layer: h.req.Layer, Class: h.req.Class, Purpose: h.req.Purpose,
		Aggregation: h.req.Aggregation, Height: h.req.Height, Invocations: h.req.Invocations,
	})
	return dec.Code, nil
}

// outcome flattens one engine run for comparison.
type outcome struct {
	Verdict semantic.Verdict
	Err     string
	GasLeft uint64
	Writes  []string
	State   map[string]string
	Events  []diffEvent
}

func runEngine(h *diffHost, exec func() (semantic.Verdict, error)) outcome {
	v, err := exec()
	o := outcome{Verdict: v, GasLeft: h.gas, Writes: h.writes, Events: h.events,
		State: make(map[string]string)}
	if err != nil {
		o.Err = err.Error()
		o.Verdict = semantic.Verdict{}
	}
	for k, val := range h.state {
		o.State[k] = string(val)
	}
	return o
}

// assertAgree runs source through both engines on identical hosts and
// fails on any divergence — verdict, error text, remaining gas (the
// exhaustion point), write order, final state, or events.
func assertAgree(t *testing.T, src string, gas uint64, req semantic.Request, seedState map[string][]byte) (outcome, bool) {
	t.Helper()
	prog, err := semantic.ParseProgram(src)
	if err != nil {
		t.Fatalf("ParseProgram(%q): %v", src, err)
	}
	mod, err := Compile(prog)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	refHost := newDiffHost(gas, req, seedState)
	ref := runEngine(refHost, func() (semantic.Verdict, error) {
		return refinterp.RunProgram(prog, refHost)
	})
	vmHost := newDiffHost(gas, req, seedState)
	got := runEngine(vmHost, func() (semantic.Verdict, error) {
		return Execute(mod, vmHost)
	})
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("divergence on %q (gas %d):\nreference: %+v\nvm:        %+v\n%s",
			src, gas, ref, got, Disasm(mod))
		return ref, false
	}
	return ref, true
}

// TestDifferentialHandWritten drives divergence-prone programs through
// both engines: short-circuit evaluation, loop-bound edges, reverts
// after state writes, type errors mid-expression, and host failures.
func TestDifferentialHandWritten(t *testing.T) {
	req := semantic.Request{
		Layer: "match", Class: "train", Purpose: "research",
		Aggregation: 3, Height: 50, Invocations: 1,
	}
	cases := []string{
		// Short-circuit: the RHS type error must never evaluate.
		`let a = false let x = a and not 5 allow`,
		`let a = true let x = a or not 5 allow`,
		// Short-circuit result values (and/or return the RHS value).
		`let x = true and 5 store("x", x == 5) allow`,
		`let x = false or "s" store("x", x) allow`,
		// Loop-bound edges: zero iterations, off-by-one, equal bounds.
		`for i = 1 to 0 { store("never", true) } allow`,
		`let n = 0 for i = 0 to 0 { n = n + 1 } store("n", n) allow`,
		`let n = 0 for i = 1 to 5 { n = n + i } store("n", n) allow`,
		// Loop variable mutated inside the body.
		`let n = 0 for i = 1 to 10 { i = i + 1 n = n + 1 } store("n", n) allow`,
		// Revert mid-write: writes before the error must match exactly.
		`store("a", 1) store("b", 2) let z = 1 + "s" store("c", 3) allow`,
		`store("a", 1) emit("went", 1) deny 5 6`,
		// Deny with computed operands and clauseof.
		`let c = "class_forbidden" deny c clauseof(c)`,
		`deny clauseof("min_aggregation") + "x" ""`,
		// Nested conditionals and else-if chains.
		`if agg > 5 { deny "a" "" } else if agg > 2 { emit("mid") allow } else { deny "b" "" }`,
		// Request projection of every field.
		`emit("req", layer, class, purpose, agg, height, uses) allow`,
		// State round trips including absent-key reads.
		`let v = load("missing") if v == false { store("missing", "now") } allow`,
		`store("k", 2.5) let v = load("k") store("k2", v * 2) allow`,
		// Division/modulo error paths.
		`let x = 1 / 0 allow`,
		`let x = agg % 0 allow`,
		// evaluate() delegation both allowed and denied.
		`let c = evaluate("train,stats", 2, 100, "research", 3) if c == "ok" { allow } deny c clauseof(c)`,
		`let c = evaluate("infer", 1, 0, "", 0) deny c clauseof(c)`,
		// Comparison chains over strings and numbers.
		`if "abc" < "abd" and 2 <= 2 and "sensor.t.x" isa "sensor.t" { allow } deny "cmp" ""`,
		// Unary minus and precedence.
		`let x = -3 + 2 * 4 if x == 5 { allow } deny "prec" ""`,
		// Allow nested deep in a loop halts without the back-edge.
		`for i = 0 to 100 { if i == 3 { allow } } deny "never" ""`,
	}
	for _, src := range cases {
		if _, ok := assertAgree(t, src, 1<<22, req, nil); !ok {
			continue
		}
		// Sweep every gas budget below full consumption: the engines
		// must hit out-of-gas at the same point with identical partial
		// effects.
		full, _ := assertAgree(t, src, 1<<22, req, nil)
		used := uint64(1<<22) - full.GasLeft
		step := used/23 + 1
		for g := uint64(0); g <= used; g += step {
			assertAgree(t, src, g, req, nil)
		}
		assertAgree(t, src, used-1, req, nil)
	}
}

// TestDifferentialLoopBound checks both engines stop a runaway loop at
// the same back-edge count with the shared sentinel.
func TestDifferentialLoopBound(t *testing.T) {
	src := `for i = 0 to 100000 { }`
	prog := semantic.MustParseProgram(src)
	mod, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	refHost := newDiffHost(1<<40, semantic.Request{}, nil)
	_, refErr := refinterp.RunProgram(prog, refHost)
	vmHost := newDiffHost(1<<40, semantic.Request{}, nil)
	_, vmErr := Execute(mod, vmHost)
	if !errors.Is(refErr, semantic.ErrLoopBound) || !errors.Is(vmErr, semantic.ErrLoopBound) {
		t.Fatalf("errs = %v / %v, want ErrLoopBound", refErr, vmErr)
	}
	if refHost.gas != vmHost.gas {
		t.Fatalf("gas at loop bound: reference %d vs vm %d", refHost.gas, vmHost.gas)
	}
}

// TestDifferentialRandomPrograms is the seeded generator harness: for
// each seed, generate a program, run both engines with an ample budget,
// then probe partial budgets around the consumption point.
func TestDifferentialRandomPrograms(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	reqs := []semantic.Request{
		{Layer: "match", Class: "train", Purpose: "research", Aggregation: 3, Height: 10, Invocations: 0},
		{Layer: "admission", Class: "stats", Purpose: "ads", Aggregation: 1, Height: 2000, Invocations: 7},
		{Layer: "enclave", Class: "infer", Purpose: "", Aggregation: 64, Height: 999, Invocations: 3},
	}
	seedState := map[string][]byte{
		"k1": semantic.EncodeValue(semantic.Number(7)),
		"k2": semantic.EncodeValue(semantic.String("train")),
	}
	for seed := 0; seed < seeds; seed++ {
		src := GenSource(uint64(seed))
		req := reqs[seed%len(reqs)]
		full, ok := assertAgree(t, src, 1<<24, req, seedState)
		if !ok {
			t.Fatalf("seed %d diverged:\n%s", seed, src)
		}
		used := uint64(1<<24) - full.GasLeft
		// Three partial budgets per seed keep the sweep fast while
		// covering early, middle and boundary exhaustion.
		for _, g := range []uint64{used / 3, 2 * used / 3, used - 1} {
			if g >= used {
				continue
			}
			if _, ok := assertAgree(t, src, g, req, seedState); !ok {
				t.Fatalf("seed %d diverged at gas %d:\n%s", seed, g, src)
			}
		}
	}
}

// TestDifferentialBuiltinSource cross-checks BuiltinPolicySource
// against policy.Evaluate itself across all six decision codes.
func TestDifferentialBuiltinSource(t *testing.T) {
	pol := &policy.Policy{
		AllowedClasses: []string{"train", "stats"},
		Purposes:       []string{"research"},
		MinAggregation: 2,
		ExpiryHeight:   100,
		MaxInvocations: 3,
	}
	src := BuiltinPolicySource(pol)
	mod, err := CompileSource(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	reqs := []policy.Request{
		{Layer: "match", Class: "train", Purpose: "research", Aggregation: 5, Height: 10},                  // ok
		{Layer: "match", Class: "train", Purpose: "research", Aggregation: 5, Height: 101},                 // expired
		{Layer: "match", Class: "infer", Purpose: "research", Aggregation: 5, Height: 10},                  // class
		{Layer: "match", Class: "train", Purpose: "ads", Aggregation: 5, Height: 10},                       // purpose
		{Layer: "match", Class: "train", Purpose: "research", Aggregation: 1, Height: 10},                  // aggregation
		{Layer: "match", Class: "train", Purpose: "research", Aggregation: 5, Height: 10, Invocations: 3},  // exhausted
		{Layer: "match", Class: "train", Purpose: "research", Aggregation: 5, Height: 100, Invocations: 2}, // boundary ok
	}
	for _, preq := range reqs {
		want := policy.Evaluate(pol, preq)
		h := newDiffHost(1<<22, semantic.Request{
			Layer: preq.Layer, Class: preq.Class, Purpose: preq.Purpose,
			Aggregation: preq.Aggregation, Height: preq.Height, Invocations: preq.Invocations,
		}, nil)
		v, err := Execute(mod, h)
		if err != nil {
			t.Fatalf("req %+v: %v", preq, err)
		}
		if v.Code != want.Code || v.Clause != want.Clause {
			t.Errorf("req %+v: program says %+v, Evaluate says code=%q clause=%q",
				preq, v, want.Code, want.Clause)
		}
	}
	// Zero policy compiles to a bare allow.
	if got := BuiltinPolicySource(&policy.Policy{}); got != "allow\n" {
		t.Errorf("zero policy source = %q", got)
	}
	// CompilePolicy, the deploy path of declarative policies outside this
	// package (the benchmark harness deploys through it), builds exactly
	// that source into an artifact that decodes and verifies.
	art, err := CompilePolicy(pol)
	if want, _ := BuildSource(src); err != nil || !bytes.Equal(art, want) {
		t.Fatalf("CompilePolicy differs from BuildSource(BuiltinPolicySource): %v", err)
	}
	if back, err := Decode(art); err != nil || VerifySource(back) != nil {
		t.Fatalf("CompilePolicy artifact does not decode and verify: %v", err)
	}
}

// TestContainerRoundTrip pins encode/decode/verify for generated
// modules.
func TestContainerRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		src := GenSource(seed)
		mod, err := CompileSource(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		art := mod.Encode()
		back, err := Decode(art)
		if err != nil {
			t.Fatalf("seed %d decode: %v", seed, err)
		}
		if !reflect.DeepEqual(mod, back) {
			t.Fatalf("seed %d round trip mismatch", seed)
		}
		if err := VerifySource(back); err != nil {
			t.Fatalf("seed %d VerifySource: %v", seed, err)
		}
		// Flipping any byte must be rejected (checksum).
		for _, i := range []int{0, len(art) / 2, len(art) - 1} {
			bad := append([]byte(nil), art...)
			bad[i] ^= 0x40
			if _, err := Decode(bad); err == nil {
				t.Fatalf("seed %d: corrupted artifact (byte %d) accepted", seed, i)
			}
		}
	}
}

// TestContainerRejects pins decode failures on malformed frames.
func TestContainerRejects(t *testing.T) {
	mod, err := CompileSource(`allow`)
	if err != nil {
		t.Fatal(err)
	}
	good := mod.Encode()
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", good[:8]},
		{"oversized", make([]byte, MaxArtifact+1)},
		{"truncated-tail", good[:len(good)-4]},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.data); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	// Tampered source with a re-computed checksum decodes but fails
	// VerifySource.
	tampered := *mod
	tampered.Source = `deny "x" ""`
	if _, err := CompileSource(tampered.Source); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(tampered.Encode())
	if err != nil {
		t.Fatalf("tampered decode: %v", err)
	}
	if err := VerifySource(back); err == nil {
		t.Error("tampered source passed VerifySource")
	}
}

// TestContainerHugeLengths feeds length prefixes of 2³¹ and more behind
// a valid checksum. They must be rejected with the same error on every
// architecture: on a 32-bit int they used to wrap negative and panic.
func TestContainerHugeLengths(t *testing.T) {
	frame := func(codeLen, srcLen uint32, code []byte) []byte {
		body := append([]byte(nil), magic...)
		body = append(body, 0, Version, 0, 0, 0) // version, nlocals, nconsts
		body = binary.BigEndian.AppendUint32(body, codeLen)
		body = append(body, code...)
		body = binary.BigEndian.AppendUint32(body, srcLen)
		body = append(body, "allow"...)
		sum := crypto.HashBytes(body)
		return append(body, sum[:]...)
	}
	code := []byte{byte(OpAllow)}
	for _, n := range []uint32{1<<31 - 1, 1 << 31, 0x80000011, 1<<32 - 1} {
		if _, err := Decode(frame(n, 5, code)); err == nil || err.Error() != "vm: code exceeds 65536 bytes" {
			t.Errorf("code length %#x: %v", n, err)
		}
		if _, err := Decode(frame(1, n, code)); err == nil || err.Error() != "vm: source exceeds 32768 bytes" {
			t.Errorf("source length %#x: %v", n, err)
		}
	}
	if _, err := Decode(frame(1, 5, code)); err != nil {
		t.Fatalf("well-formed frame: %v", err)
	}
}

// TestVerifyRejectsForgedCode drives the static verifier's rejection
// paths with hand-forged modules.
func TestVerifyRejectsForgedCode(t *testing.T) {
	c := func(code ...byte) *Module {
		return &Module{NumLocals: 1, Consts: []semantic.Value{semantic.String("t")}, Code: code}
	}
	cases := []struct {
		name string
		m    *Module
	}{
		{"empty", c()},
		{"bad-opcode", c(0xEE, byte(OpAllow))},
		{"truncated-operand", c(byte(OpPush), 0)},
		{"const-oob", c(byte(OpPush), 0, 9, byte(OpAllow))},
		{"local-oob", c(byte(OpLoadLocal), 5, byte(OpAllow))},
		{"req-oob", c(byte(OpLoadReq), 99, byte(OpAllow))},
		{"no-halt", c(byte(OpPush), 0, 0)},
		{"jump-backward", c(byte(OpAllow), byte(OpJump), 0, 0)},
		{"jump-into-operand", c(byte(OpPush), 0, 0, byte(OpJump), 0, 2, byte(OpAllow))},
		{"jump-past-end", c(byte(OpJump), 0, 99, byte(OpAllow))},
		{"loop-forward", c(byte(OpLoop), 0, 3, byte(OpAllow))},
		{"emit-topic-not-string", &Module{NumLocals: 0,
			Consts: []semantic.Value{semantic.Number(1)},
			Code:   []byte{byte(OpEmit), 0, 0, 0, byte(OpAllow)}}},
		{"too-many-locals", &Module{NumLocals: semantic.MaxLocals + 1, Code: []byte{byte(OpAllow)}}},
	}
	for _, tc := range cases {
		if err := Verify(tc.m); err == nil {
			t.Errorf("%s verified", tc.name)
		}
	}
}

// TestForgedCodeCannotEscape executes verifier-passing but compiler-
// unreachable code shapes and checks the runtime guards hold.
func TestForgedCodeCannotEscape(t *testing.T) {
	// Infinite loop via OpLoop: terminated by the back-edge counter
	// even with effectively unlimited gas.
	m := &Module{Code: []byte{byte(OpLoop), 0, 0}}
	if err := Verify(m); err != nil {
		t.Fatalf("loop module: %v", err)
	}
	h := newDiffHost(1<<60, semantic.Request{}, nil)
	if _, err := Execute(m, h); !errors.Is(err, semantic.ErrLoopBound) {
		t.Fatalf("err = %v, want ErrLoopBound", err)
	}
	// Stack underflow errors out instead of panicking.
	m = &Module{Code: []byte{byte(OpAdd), byte(OpAllow)}}
	if err := Verify(m); err != nil {
		t.Fatalf("underflow module: %v", err)
	}
	if _, err := Execute(m, newDiffHost(1<<20, semantic.Request{}, nil)); err == nil {
		t.Fatal("stack underflow succeeded")
	}
}

func TestDisasmCoversEveryOpcode(t *testing.T) {
	src := `
		let x = 1 + 2 * 3 - 4 / 5 % 6
		let r = agg + height * uses
		let s = "a" + "b" + layer + class + purpose
		let b = not (x == 1) and x != 2 or x < 3
		if x <= 4 { emit("t", x) } else { store("k", b) }
		for i = 0 to 2 { }
		let l = load("k")
		let c = clauseof("ok")
		let e = evaluate("train", 1, 0, "", 0)
		if x > 5 { allow }
		if "a" contains "b" { allow }
		if "a" isa "b" { allow }
		if x >= 6 { deny (-x) + 0 == 0 and true or false "c" }
		deny "a" "b"`
	mod, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	dis := Disasm(mod)
	for op := opInvalid + 1; op < opMax; op++ {
		if !containsInstr(dis, op.String()) {
			t.Errorf("opcode %s missing from disassembly:\n%s", op, dis)
		}
	}
}

func containsInstr(dis, name string) bool {
	for _, line := range splitLines(dis) {
		fields := splitFields(line)
		if len(fields) >= 2 && fields[1] == name {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}

func splitFields(s string) []string {
	var out []string
	field := ""
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\t' || s[i] == ' ' {
			if field != "" {
				out = append(out, field)
				field = ""
			}
			continue
		}
		field += string(s[i])
	}
	return out
}

func TestGenSourceDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		a, b := GenSource(seed), GenSource(seed)
		if a != b {
			t.Fatalf("seed %d nondeterministic", seed)
		}
		if _, err := CompileSource(a); err != nil {
			t.Fatalf("seed %d does not compile: %v\n%s", seed, err, a)
		}
	}
	if GenSource(1) == GenSource(2) {
		t.Error("distinct seeds produced identical programs")
	}
}

func TestDisasmExample(t *testing.T) {
	// Keep a stable smoke on the human-facing format used by
	// `pds2 compile -disasm`.
	mod, err := CompileSource(`if agg < 2 { deny "aggregation_floor" "min_aggregation" } allow`)
	if err != nil {
		t.Fatal(err)
	}
	dis := Disasm(mod)
	for _, want := range []string{"loadreq", "push", "lt", "jf", "deny", "allow"} {
		if !containsInstr(dis, want) {
			t.Errorf("disasm missing %q:\n%s", want, dis)
		}
	}
	if len(fmt.Sprint(mod.Checksum())) == 0 {
		t.Error("empty checksum")
	}
}
