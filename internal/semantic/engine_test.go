package semantic

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// mapHost is a Host over a map: the shared engine code's host calls run
// against it without a contract runtime.
type mapHost struct {
	state  map[string][]byte
	events []string
	req    Request
	fail   error  // returned by every host call when set
	code   string // EvalBuiltin's decision
	called string // EvalBuiltin's last arguments
}

func newMapHost() *mapHost { return &mapHost{state: map[string][]byte{}, code: "ok"} }

func (h *mapHost) UseGas(uint64) error { return h.fail }
func (h *mapHost) Request() Request    { return h.req }

func (h *mapHost) Load(key string) ([]byte, error) {
	if h.fail != nil {
		return nil, h.fail
	}
	return h.state[key], nil
}

func (h *mapHost) Store(key string, val []byte) error {
	if h.fail != nil {
		return h.fail
	}
	h.state[key] = val
	return nil
}

func (h *mapHost) EmitEvent(topic string, data []byte) error {
	if h.fail != nil {
		return h.fail
	}
	h.events = append(h.events, fmt.Sprintf("%s:%x", topic, data))
	return nil
}

func (h *mapHost) EvalBuiltin(classes []string, minAgg, expiry uint64, purposes []string, maxInv uint64) (string, error) {
	if h.fail != nil {
		return "", h.fail
	}
	h.called = fmt.Sprintf("%q %d %d %q %d", classes, minAgg, expiry, purposes, maxInv)
	return h.code, nil
}

// render prints a result or its error for table comparison.
func render(v Value, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return v.String()
}

func TestApplyOperators(t *testing.T) {
	n, s, b := Number, String, Bool
	for _, c := range []struct {
		op   string
		a, b Value
		want string
	}{
		{"+", n(2), n(3), "5"},
		{"+", s("ab"), s("cd"), `"abcd"`},
		{"+", s("a"), n(1), `error: program: cannot apply "+" to "a" and 1`},
		{"-", n(2), n(3), "-1"},
		{"*", n(2), n(3), "6"},
		{"-", b(true), n(3), `error: program: cannot apply "-" to true and 3`},
		{"/", n(7), n(2), "3.5"},
		{"%", n(7), n(2), "1"},
		{"/", n(7), n(0), "error: program: division by zero"},
		{"%", s("x"), n(2), `error: program: cannot apply "%" to "x" and 2`},
		{"==", s("x"), s("x"), "true"},
		{"==", n(1), s("1"), "false"},
		{"!=", n(1), n(2), "true"},
		{"<", n(1), n(2), "true"},
		{"<=", n(2), n(2), "true"},
		{">", n(2), n(2), "false"},
		{">=", n(2), n(3), "false"},
		{"<", s("a"), s("b"), "true"},
		{">=", s("b"), s("a"), "true"},
		{"<", b(false), b(true), `error: program: cannot apply "<" to false and true`},
		{"contains", s("research"), s("search"), "true"},
		{"contains", s("research"), n(1), "false"},
		{"isa", s("sensor.temp"), s("sensor"), "true"},
		{"isa", s("sensor"), s("sensor"), "true"},
		{"isa", s("sensors"), s("sensor"), "false"},
		{"isa", n(1), s("sensor"), "false"},
		{"^", n(1), n(2), `error: program: unknown operator "^"`},
	} {
		if got := render(ApplyBinary(c.op, c.a, c.b)); got != c.want {
			t.Errorf("%v %s %v = %s, want %s", c.a, c.op, c.b, got, c.want)
		}
	}
	for _, c := range []struct {
		op   string
		v    Value
		want string
	}{
		{"not", b(true), "false"},
		{"not", n(1), `error: program: cannot apply "not" to 1`},
		{"-", n(2), "-2"},
		{"-", s("x"), `error: program: cannot apply "-" to "x"`},
		{"+", n(2), `error: program: unknown unary operator "+"`},
	} {
		if got := render(ApplyUnary(c.op, c.v)); got != c.want {
			t.Errorf("%s %v = %s, want %s", c.op, c.v, got, c.want)
		}
	}
	if v, err := TruthOf(b(true)); !v || err != nil {
		t.Errorf("TruthOf(true) = %v, %v", v, err)
	}
	if _, err := TruthOf(n(1)); err == nil || err.Error() != "program: condition must be a bool, got 1" {
		t.Errorf("TruthOf(1) error = %v", err)
	}
}

func TestReqValueAndVerdicts(t *testing.T) {
	req := Request{Layer: "match", Class: "train", Purpose: "research", Aggregation: 3, Height: 9, Invocations: 2}
	var got []string
	for f := ReqField(0); f < NumReqFields; f++ {
		got = append(got, ReqValue(req, f).String())
	}
	if s := strings.Join(got, " "); s != `"match" "train" "research" 3 9 2` {
		t.Errorf("request fields = %s", s)
	}
	for code, clause := range map[string]string{
		"policy_expired": "expiry_height", "class_forbidden": "allowed_classes",
		"purpose_mismatch": "purposes", "aggregation_floor": "min_aggregation",
		"invocations_exhausted": "max_invocations", "ok": "", "custom": "",
	} {
		if v, err := ClauseOfValue(String(code)); err != nil || v.S != clause {
			t.Errorf("clauseof(%q) = %v, %v; want %q", code, v, err, clause)
		}
	}
	if _, err := ClauseOfValue(Number(1)); err == nil || err.Error() != "program: clauseof needs a string, got 1" {
		t.Errorf("clauseof(1) error = %v", err)
	}
	v, err := DenyVerdict(String("class_forbidden"), String("allowed_classes"))
	if err != nil || v.Allowed() || v.Code != "class_forbidden" || v.Clause != "allowed_classes" {
		t.Errorf("deny verdict = %+v, %v", v, err)
	}
	if _, err := DenyVerdict(String("x"), Bool(true)); err == nil ||
		err.Error() != `program: deny needs string code and clause, got "x" and true` {
		t.Errorf("deny type error = %v", err)
	}
	if !(Verdict{Code: VerdictOK}).Allowed() {
		t.Error("ok verdict does not allow")
	}
}

func TestHostCalls(t *testing.T) {
	h := newMapHost()
	if got := render(HostLoad(h, String("k"))); got != "false" {
		t.Errorf("absent load = %s", got)
	}
	if err := HostStore(h, String("k"), Number(4)); err != nil {
		t.Fatal(err)
	}
	if got := render(HostLoad(h, String("k"))); got != "4" {
		t.Errorf("stored load = %s", got)
	}
	h.state["bad"] = []byte{9}
	long := String(strings.Repeat("k", MaxStateKeyLen+1))
	for _, c := range []struct {
		name string
		err  error
		want string
	}{
		{"corrupt load", second(HostLoad(h, String("bad"))), `program: corrupt stored value at key "bad"`},
		{"number key load", second(HostLoad(h, Number(1))), "program: storage key must be a string, got 1"},
		{"long key load", second(HostLoad(h, long)), "program: storage key exceeds 256 bytes"},
		{"number key store", HostStore(h, Number(1), Bool(true)), "program: storage key must be a string, got 1"},
		{"long key store", HostStore(h, long, Bool(true)), "program: storage key exceeds 256 bytes"},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("%s: error %v, want %s", c.name, c.err, c.want)
		}
	}

	args := []Value{String("x"), Number(2), Bool(false)}
	if err := HostEmit(h, "probe", args); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("probe:%x", EncodeEventData(args)); len(h.events) != 1 || h.events[0] != want {
		t.Errorf("events = %v, want %s", h.events, want)
	}
	back, err := DecodeEventData(EncodeEventData(args))
	if err != nil || len(back) != 3 || !back[0].Equal(args[0]) || !back[1].Equal(args[1]) || !back[2].Equal(args[2]) {
		t.Errorf("event data round trip = %v, %v", back, err)
	}
	if _, err := DecodeEventData([]byte{0}); err == nil {
		t.Error("one-byte event frame accepted")
	}
	if _, err := DecodeEventData([]byte{0, 1, 9}); err == nil {
		t.Error("event frame with a bad value accepted")
	}

	h.code = "purpose_mismatch"
	v, err := HostEvalBuiltin(h, []Value{String("train,stats"), Number(3), Number(0), String(""), Number(5)})
	if err != nil || v.S != "purpose_mismatch" || h.called != `["train" "stats"] 3 0 [] 5` {
		t.Errorf("evaluate = %v, %v; host saw %s", v, err, h.called)
	}
	for _, c := range []struct {
		args []Value
		want string
	}{
		{[]Value{Number(1), Number(3), Number(0), String(""), Number(5)},
			"program: evaluate classes and purposes must be strings, got 1 and \"\""},
		{[]Value{String(""), Number(-1), Number(0), String(""), Number(5)},
			"program: evaluate minagg must be a non-negative integer, got -1"},
		{[]Value{String(""), Number(1), Number(0.5), String(""), Number(5)},
			"program: evaluate expiry must be a non-negative integer, got 0.5"},
		{[]Value{String(""), Number(1), Number(0), String(""), String("5")},
			"program: evaluate maxinv must be a non-negative integer, got \"5\""},
	} {
		if _, err := HostEvalBuiltin(h, c.args); err == nil || err.Error() != c.want {
			t.Errorf("evaluate%v: error %v, want %s", c.args, err, c.want)
		}
	}

	// Host failures pass through unchanged.
	boom := errors.New("host: out of gas")
	h.fail = boom
	for name, err := range map[string]error{
		"load":     second(HostLoad(h, String("k"))),
		"store":    HostStore(h, String("k"), Bool(true)),
		"emit":     HostEmit(h, "t", nil),
		"evaluate": second(HostEvalBuiltin(h, []Value{String(""), Number(0), Number(0), String(""), Number(0)})),
	} {
		if err != boom {
			t.Errorf("%s with a failing host: %v", name, err)
		}
	}
}

func second(_ Value, err error) error { return err }
