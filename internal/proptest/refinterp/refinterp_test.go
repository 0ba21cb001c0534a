package refinterp

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"pds2/internal/semantic"
)

// progHost is a minimal in-memory Host for interpreter unit tests.
type progHost struct {
	gas    uint64
	req    semantic.Request
	state  map[string][]byte
	events []struct {
		topic string
		data  []byte
	}
	builtinCode string
}

var errHostOOG = errors.New("out of gas")

func (h *progHost) UseGas(n uint64) error {
	if h.gas < n {
		h.gas = 0
		return errHostOOG
	}
	h.gas -= n
	return nil
}
func (h *progHost) Request() semantic.Request { return h.req }
func (h *progHost) Load(key string) ([]byte, error) {
	return h.state[key], nil
}
func (h *progHost) Store(key string, val []byte) error {
	if h.state == nil {
		h.state = make(map[string][]byte)
	}
	h.state[key] = val
	return nil
}
func (h *progHost) EmitEvent(topic string, data []byte) error {
	h.events = append(h.events, struct {
		topic string
		data  []byte
	}{topic, data})
	return nil
}
func (h *progHost) EvalBuiltin([]string, uint64, uint64, []string, uint64) (string, error) {
	if err := h.UseGas(500); err != nil {
		return "", err
	}
	if h.builtinCode == "" {
		return semantic.VerdictOK, nil
	}
	return h.builtinCode, nil
}

func runSrc(t *testing.T, src string, h *progHost) (semantic.Verdict, error) {
	t.Helper()
	p, err := semantic.ParseProgram(src)
	if err != nil {
		t.Fatalf("ParseProgram(%q): %v", src, err)
	}
	return RunProgram(p, h)
}

func TestRunProgramVerdicts(t *testing.T) {
	cases := []struct {
		src        string
		wantCode   string
		wantClause string
	}{
		{`allow`, "ok", ""},
		{``, "ok", ""}, // implicit allow
		{`deny "class_forbidden" "allowed_classes"`, "class_forbidden", "allowed_classes"},
		{`if agg < 5 { deny "aggregation_floor" "min_aggregation" } allow`, "aggregation_floor", "min_aggregation"},
		{`if agg >= 5 { deny "x" "y" } allow`, "ok", ""},
		{`let c = "purpose_mismatch" deny c clauseof(c)`, "purpose_mismatch", "purposes"},
		{`let n = 0 for i = 1 to 4 { n = n + i } if n == 10 { allow } deny "sum" ""`, "ok", ""},
		{`if class == "train" or class == "stats" { allow } deny "class_forbidden" clauseof("class_forbidden")`, "ok", ""},
		{`let v = evaluate("train,stats", 1, 0, "", 0) if v == "ok" { allow } deny v clauseof(v)`, "ok", ""},
	}
	for _, tc := range cases {
		h := &progHost{gas: 1 << 20, req: semantic.Request{Class: "train", Aggregation: 3}}
		v, err := runSrc(t, tc.src, h)
		if err != nil {
			t.Errorf("run(%q): %v", tc.src, err)
			continue
		}
		if v.Code != tc.wantCode || v.Clause != tc.wantClause {
			t.Errorf("run(%q) = %+v, want code=%q clause=%q", tc.src, v, tc.wantCode, tc.wantClause)
		}
	}
}

func TestRunProgramStateAndEvents(t *testing.T) {
	src := `
		let seen = load("seen")
		if seen == false { store("seen", 1) } else { store("seen", seen + 1) }
		emit("audit", class, agg, seen)
		allow`
	h := &progHost{gas: 1 << 20, req: semantic.Request{Class: "train", Aggregation: 2}}
	if _, err := runSrc(t, src, h); err != nil {
		t.Fatal(err)
	}
	v, err := semantic.DecodeValue(h.state["seen"])
	if err != nil || !v.Equal(semantic.Number(1)) {
		t.Fatalf("seen = %v (%v), want 1", v, err)
	}
	// Second run increments.
	h.gas = 1 << 20
	if _, err := runSrc(t, src, h); err != nil {
		t.Fatal(err)
	}
	if v, _ = semantic.DecodeValue(h.state["seen"]); !v.Equal(semantic.Number(2)) {
		t.Fatalf("seen after second run = %v, want 2", v)
	}
	if len(h.events) != 2 {
		t.Fatalf("events = %d, want 2", len(h.events))
	}
	want := semantic.EncodeEventData([]semantic.Value{semantic.String("train"), semantic.Number(2), semantic.Number(1)})
	if !bytes.Equal(h.events[1].data, want) {
		t.Fatalf("event data = %x, want %x", h.events[1].data, want)
	}
}

func TestRunProgramErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{`let x = 1 / 0 allow`, "division by zero"},
		{`let x = 1 + "s" allow`, `cannot apply "+"`},
		{`if 5 { allow }`, "condition must be a bool"},
		{`deny 1 2`, "deny needs string code"},
		{`store(5, 1)`, "storage key must be a string"},
		{`let x = not 3 allow`, `cannot apply "not"`},
		{`let x = evaluate("a", -1, 0, "", 0) allow`, "non-negative integer"},
		{`for i = 0 to 100000 { }`, "loop iteration bound"},
	}
	for _, tc := range cases {
		h := &progHost{gas: 1 << 62}
		_, err := runSrc(t, tc.src, h)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("run(%q) err = %v, want substring %q", tc.src, err, tc.wantSub)
		}
	}
}

// TestRunProgramGasExhaustion verifies out-of-gas surfaces the host
// error and that the total cost of a fixed program is deterministic.
func TestRunProgramGasExhaustion(t *testing.T) {
	src := `let n = 0 for i = 1 to 8 { n = n + i store("n", n) } allow`
	full := &progHost{gas: 1 << 30}
	if _, err := runSrc(t, src, full); err != nil {
		t.Fatal(err)
	}
	used := 1<<30 - full.gas
	if used == 0 {
		t.Fatal("program used no gas")
	}
	// Re-running with the exact budget succeeds; one less fails.
	if _, err := runSrc(t, src, &progHost{gas: used}); err != nil {
		t.Fatalf("exact budget failed: %v", err)
	}
	if _, err := runSrc(t, src, &progHost{gas: used - 1}); !errors.Is(err, errHostOOG) {
		t.Fatalf("budget-1 err = %v, want host OOG", err)
	}
	// Every budget below the requirement fails with OOG, never panics.
	for g := uint64(0); g < used; g += 7 {
		if _, err := runSrc(t, src, &progHost{gas: g}); !errors.Is(err, errHostOOG) {
			t.Fatalf("budget %d err = %v, want host OOG", g, err)
		}
	}
}
