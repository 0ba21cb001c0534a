package smc

import (
	"math"
	"testing"
	"testing/quick"

	"pds2/internal/crypto"
	"pds2/internal/simnet"
)

func newEngine(t *testing.T, parties int, seed uint64) *Engine {
	t.Helper()
	e, err := NewEngine(parties, crypto.NewDRBGFromUint64(seed, "smc-test"))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, f := range []float64{0, 1.5, -2.25, 100.0625, -0.0001} {
		got := Decode(Encode(f, FixedScale), FixedScale)
		if math.Abs(got-f) > 1e-4 {
			t.Fatalf("%v -> %v", f, got)
		}
	}
}

func TestShareOpenRoundTrip(t *testing.T) {
	e := newEngine(t, 3, 1)
	x := []float64{1.5, -2.5, 0, 42.125}
	sv := e.Share(x, FixedScale)
	got := e.Open(sv)
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-4 {
			t.Fatalf("element %d: %v != %v", i, got[i], x[i])
		}
	}
}

func TestSharesIndividuallyUseless(t *testing.T) {
	e := newEngine(t, 3, 2)
	secret := []float64{123.456}
	sv := e.Share(secret, FixedScale)
	// Any single party's share decodes to nonsense (whp): check it is far
	// from the secret.
	for p := 0; p < 3; p++ {
		v := Decode(sv.Shares[p][0], FixedScale)
		if math.Abs(v-123.456) < 1e-3 {
			t.Fatalf("party %d share leaks the secret", p)
		}
	}
}

func TestMulBeaverCorrect(t *testing.T) {
	e := newEngine(t, 3, 5)
	e.DealTriples(10)
	x := []float64{1.5, -2, 3.25}
	y := []float64{2, 4, -0.5}
	sx := e.Share(x, FixedScale)
	sy := e.Share(y, FixedScale)
	prod, err := e.Mul(sx, sy)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Open(prod)
	for i := range x {
		want := x[i] * y[i]
		if math.Abs(got[i]-want) > 1e-3 {
			t.Fatalf("prod[%d] = %v, want %v", i, got[i], want)
		}
	}
	if e.TriplesLeft() != 7 {
		t.Fatalf("triples left = %d", e.TriplesLeft())
	}
}

func TestMulWithoutTriplesFails(t *testing.T) {
	e := newEngine(t, 3, 6)
	x := e.Share([]float64{1}, FixedScale)
	if _, err := e.Mul(x, x); err == nil {
		t.Fatal("mul without triples succeeded")
	}
}

func TestDotMatchesPlain(t *testing.T) {
	e := newEngine(t, 3, 7)
	e.DealTriples(100)
	x := []float64{1, 2, 3, 4}
	w := []float64{0.5, -1, 0.25, 2}
	sx := e.Share(x, FixedScale)
	sw := e.Share(w, FixedScale)
	dot, err := e.Dot(sx, sw)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Open(dot)
	want := 0.5 - 2 + 0.75 + 8
	if math.Abs(got[0]-want) > 1e-3 {
		t.Fatalf("dot = %v, want %v", got[0], want)
	}
}

func TestMulPropertyQuick(t *testing.T) {
	e := newEngine(t, 3, 8)
	e.DealTriples(2000)
	f := func(a, b int16) bool {
		x, y := float64(a)/16, float64(b)/16
		sx := e.Share([]float64{x}, FixedScale)
		sy := e.Share([]float64{y}, FixedScale)
		prod, err := e.Mul(sx, sy)
		if err != nil {
			return false
		}
		got := e.Open(prod)
		return math.Abs(got[0]-x*y) < 1e-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCommunicationAccounting(t *testing.T) {
	e := newEngine(t, 3, 10)
	e.DealTriples(10)
	if e.Rounds != 0 || e.BytesSent != 0 {
		t.Fatal("dealer charged to online cost")
	}
	x := e.Share([]float64{1, 2}, FixedScale) // round 1
	y := e.Share([]float64{3, 4}, FixedScale) // round 2
	e.Mul(x, y)                               // round 3
	e.Open(x)                                 // round 4
	if e.Rounds != 4 {
		t.Fatalf("rounds = %d, want 4", e.Rounds)
	}
	if e.BytesSent == 0 {
		t.Fatal("no bytes accounted")
	}
}

func TestVirtualTimeModel(t *testing.T) {
	e := newEngine(t, 3, 11)
	e.Rounds = 10
	e.BytesSent = 1000
	// 10 rounds at 10ms + 1000 bytes at 1 KB/s = 100ms + 1s.
	got := e.VirtualTime(10*simnet.Millisecond, 1000)
	want := 100*simnet.Millisecond + simnet.Second
	if got != want {
		t.Fatalf("virtual time = %v, want %v", got, want)
	}
	// Zero bandwidth = latency only.
	if got := e.VirtualTime(10*simnet.Millisecond, 0); got != 100*simnet.Millisecond {
		t.Fatalf("latency-only time = %v", got)
	}
}

func TestTwoPartyEngine(t *testing.T) {
	e := newEngine(t, 2, 12)
	e.DealTriples(5)
	x := e.Share([]float64{3}, FixedScale)
	y := e.Share([]float64{7}, FixedScale)
	prod, err := e.Mul(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Open(prod); math.Abs(got[0]-21) > 1e-3 {
		t.Fatalf("2-party mul = %v", got)
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(1, crypto.NewDRBGFromUint64(1, "x")); err == nil {
		t.Fatal("single-party engine accepted")
	}
}

func TestDealTriplesAppends(t *testing.T) {
	e := newEngine(t, 3, 13)
	e.DealTriples(3)
	e.DealTriples(2)
	if e.TriplesLeft() != 5 {
		t.Fatalf("triples = %d", e.TriplesLeft())
	}
}
