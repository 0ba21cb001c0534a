package tee

import (
	"bytes"
	"errors"
	"testing"

	"pds2/internal/crypto"
	"pds2/internal/simnet"
)

func testProgram(name string) Program {
	return Program{
		Code: []byte("program " + name),
		Fn: func(input []byte) ([]byte, error) {
			out := append([]byte("echo:"), input...)
			return out, nil
		},
	}
}

func testPlatform(t *testing.T, seed uint64) (*QuotingAuthority, *Platform) {
	t.Helper()
	rng := crypto.NewDRBGFromUint64(seed, "tee-test")
	qa := NewQuotingAuthority(rng)
	p := NewPlatform(qa, DefaultCostModel(), rng)
	return qa, p
}

func TestLaunchAndCall(t *testing.T) {
	_, p := testPlatform(t, 1)
	e, err := p.Launch(testProgram("a"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Call([]byte("hi"), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Output, []byte("echo:hi")) {
		t.Fatalf("output = %q", res.Output)
	}
	if res.Virtual < p.Cost().EcallCost {
		t.Fatalf("virtual time %v below ecall cost", res.Virtual)
	}
}

func TestGuardBlocksCallBeforeProgram(t *testing.T) {
	_, p := testPlatform(t, 9)
	ran := false
	e, err := p.Launch(Program{
		Code: []byte("guarded"),
		Fn: func(input []byte) ([]byte, error) {
			ran = true
			return input, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	denied := errors.New("usage denied")
	e.SetGuard(func(input []byte, ws int64) error {
		if bytes.HasPrefix(input, []byte("bad")) {
			return denied
		}
		return nil
	})
	if _, err := e.Call([]byte("bad input"), 1<<10); !errors.Is(err, denied) {
		t.Fatalf("guarded call error = %v", err)
	}
	if ran {
		t.Fatal("program ran despite guard denial")
	}
	if _, err := e.Call([]byte("ok input"), 1<<10); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("allowed call did not run the program")
	}
	// Clearing the guard restores unconditional execution.
	e.SetGuard(nil)
	if _, err := e.Call([]byte("bad again"), 1<<10); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchValidation(t *testing.T) {
	_, p := testPlatform(t, 2)
	if _, err := p.Launch(Program{Fn: func([]byte) ([]byte, error) { return nil, nil }}); err == nil {
		t.Fatal("empty code accepted")
	}
	if _, err := p.Launch(Program{Code: []byte("x")}); err == nil {
		t.Fatal("nil entry point accepted")
	}
}

func TestMeasurementBindsCode(t *testing.T) {
	_, p := testPlatform(t, 3)
	e1, _ := p.Launch(testProgram("a"))
	e2, _ := p.Launch(testProgram("b"))
	if e1.Measurement() == e2.Measurement() {
		t.Fatal("different code, same measurement")
	}
	e3, _ := p.Launch(testProgram("a"))
	if e1.Measurement() != e3.Measurement() {
		t.Fatal("same code, different measurement")
	}
}

func TestQuoteVerifyChain(t *testing.T) {
	qa, p := testPlatform(t, 4)
	e, _ := p.Launch(testProgram("a"))
	report := crypto.HashString("result commitment")
	q := e.Quote(report)

	if err := VerifyQuote(qa.PublicKey(), q, e.Measurement()); err != nil {
		t.Fatalf("valid quote rejected: %v", err)
	}
	if q.ReportData != report {
		t.Fatal("report data not bound")
	}
}

func TestQuoteWrongMeasurementRejected(t *testing.T) {
	qa, p := testPlatform(t, 5)
	e, _ := p.Launch(testProgram("a"))
	q := e.Quote(crypto.HashString("r"))
	other, _ := p.Launch(testProgram("b"))
	if err := VerifyQuote(qa.PublicKey(), q, other.Measurement()); !errors.Is(err, ErrQuoteMeasurement) {
		t.Fatalf("want ErrQuoteMeasurement, got %v", err)
	}
}

func TestQuoteTamperedReportRejected(t *testing.T) {
	qa, p := testPlatform(t, 6)
	e, _ := p.Launch(testProgram("a"))
	q := e.Quote(crypto.HashString("honest"))
	q.ReportData = crypto.HashString("forged")
	if err := VerifyQuote(qa.PublicKey(), q, e.Measurement()); !errors.Is(err, ErrQuoteSig) {
		t.Fatalf("want ErrQuoteSig, got %v", err)
	}
}

func TestQuoteUncertifiedPlatformRejected(t *testing.T) {
	qa, _ := testPlatform(t, 7)
	// A rogue platform provisioned by a different authority.
	rng := crypto.NewDRBGFromUint64(99, "rogue")
	rogueQA := NewQuotingAuthority(rng)
	rogue := NewPlatform(rogueQA, DefaultCostModel(), rng)
	e, _ := rogue.Launch(testProgram("a"))
	q := e.Quote(crypto.HashString("r"))
	if err := VerifyQuote(qa.PublicKey(), q, e.Measurement()); !errors.Is(err, ErrQuoteCert) {
		t.Fatalf("want ErrQuoteCert, got %v", err)
	}
}

func TestQuoteCounterMonotonic(t *testing.T) {
	_, p := testPlatform(t, 8)
	e, _ := p.Launch(testProgram("a"))
	q1 := e.Quote(crypto.HashString("r"))
	q2 := e.Quote(crypto.HashString("r"))
	if q2.Counter <= q1.Counter {
		t.Fatalf("counters %d, %d not monotonic", q1.Counter, q2.Counter)
	}
}

func TestOverheadFactorShape(t *testing.T) {
	m := DefaultCostModel()
	inEPC := m.OverheadFactor(1 << 20)
	atEPC := m.OverheadFactor(m.EPCBytes)
	beyond := m.OverheadFactor(m.EPCBytes * 4)
	far := m.OverheadFactor(m.EPCBytes * 100)
	if inEPC != m.BaseOverhead || atEPC != m.BaseOverhead {
		t.Fatalf("EPC-resident overhead %v, %v", inEPC, atEPC)
	}
	if !(beyond > atEPC) || !(far > beyond) {
		t.Fatalf("paging overhead not increasing: %v, %v, %v", beyond, far, atEPC)
	}
	max := m.BaseOverhead * (1 + m.PagingOverhead)
	if far > max {
		t.Fatalf("overhead %v exceeds asymptote %v", far, max)
	}
}

func TestOverheadVirtualTimeReflectsPaging(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(13, "tee")
	qa := NewQuotingAuthority(rng)
	cost := DefaultCostModel()
	cost.EPCBytes = 1 << 20
	p := NewPlatform(qa, cost, rng)
	work := Program{
		Code: []byte("spin"),
		Fn: func(input []byte) ([]byte, error) {
			s := 0.0
			for i := 0; i < 200_000; i++ {
				s += float64(i)
			}
			_ = s
			return nil, nil
		},
	}
	e, _ := p.Launch(work)
	small, err := e.Call(nil, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	large, err := e.Call(nil, 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	// Same real work, but the modelled time must be larger with paging.
	// Compare per-elapsed ratios to be robust to scheduler noise.
	rSmall := float64(small.Virtual) / float64(small.Elapsed.Microseconds()+1)
	rLarge := float64(large.Virtual) / float64(large.Elapsed.Microseconds()+1)
	if rLarge <= rSmall {
		t.Fatalf("paging did not increase modelled overhead: %v vs %v", rLarge, rSmall)
	}
}

func TestEnclaveCallError(t *testing.T) {
	_, p := testPlatform(t, 14)
	boom := Program{
		Code: []byte("boom"),
		Fn:   func([]byte) ([]byte, error) { return nil, errors.New("kaboom") },
	}
	e, _ := p.Launch(boom)
	if _, err := e.Call(nil, 0); err == nil {
		t.Fatal("error swallowed")
	}
}

func TestLaunchCost(t *testing.T) {
	_, p := testPlatform(t, 15)
	e, _ := p.Launch(testProgram("a"))
	if e.LaunchCost() != 10*simnet.Millisecond {
		t.Fatalf("launch cost = %v", e.LaunchCost())
	}
}
