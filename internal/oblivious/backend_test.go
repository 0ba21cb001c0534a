package oblivious

import (
	"math"
	"testing"

	"pds2/internal/crypto"
	"pds2/internal/simnet"
	"pds2/internal/tee"
)

// testBackends builds one of each backend with small parameters.
func testBackends(t *testing.T) []Backend {
	t.Helper()
	rng := crypto.NewDRBGFromUint64(1, "oblivious-test")
	qa := tee.NewQuotingAuthority(rng)
	platform := tee.NewPlatform(qa, tee.DefaultCostModel(), rng)
	link := Link{Latency: 10 * simnet.Millisecond, Bandwidth: 10 << 20}

	heb, err := NewHE(512, 7, link)
	if err != nil {
		t.Fatal(err)
	}
	return []Backend{
		Plain{},
		NewTEE(platform, link),
		heb,
		NewSMC(3, 7, link),
	}
}

// testWorkload builds a small linear-prediction problem.
func testWorkload() (w []float64, bias float64, X [][]float64, want []float64) {
	w = []float64{0.5, -1.25, 2}
	bias = 0.75
	X = [][]float64{
		{1, 2, 3},
		{-1, 0.5, 0},
		{0, 0, 0},
		{4, -4, 0.25},
	}
	want = make([]float64, len(X))
	for i, row := range X {
		s := bias
		for j := range row {
			s += row[j] * w[j]
		}
		want[i] = s
	}
	return
}

func TestAllBackendsAgreeOnLinearPredict(t *testing.T) {
	w, bias, X, want := testWorkload()
	for _, b := range testBackends(t) {
		got, cost, err := b.LinearPredict(w, bias, X)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d results", b.Name(), len(got))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-3 {
				t.Fatalf("%s: result[%d] = %v, want %v", b.Name(), i, got[i], want[i])
			}
		}
		if cost.Virtual < 0 {
			t.Fatalf("%s: negative virtual cost", b.Name())
		}
	}
}

func TestBackendsRejectBadShapes(t *testing.T) {
	for _, b := range testBackends(t) {
		if _, _, err := b.LinearPredict([]float64{1, 2}, 0, [][]float64{{1}}); err == nil {
			t.Fatalf("%s: shape mismatch accepted", b.Name())
		}
	}
}

func TestPrivateBackendsReportCommunication(t *testing.T) {
	w, bias, X, _ := testWorkload()
	for _, b := range testBackends(t) {
		_, cost, err := b.LinearPredict(w, bias, X)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name() == "plain" {
			if cost.CommBytes != 0 {
				t.Fatal("plain backend reported communication")
			}
			continue
		}
		if cost.CommBytes == 0 || cost.CommRounds == 0 {
			t.Fatalf("%s: no communication accounted", b.Name())
		}
	}
}

func TestOverheadOrderingMatchesPaper(t *testing.T) {
	// §III-B's qualitative claim: plain < tee << he in compute cost, and
	// SMC cheaper than HE in compute. Use a large-enough workload for the
	// timing to be stable.
	rng := crypto.NewDRBGFromUint64(3, "ordering")
	dim, n := 32, 40
	w := make([]float64, dim)
	X := make([][]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	for i := range X {
		X[i] = make([]float64, dim)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
	}
	costs := map[string]Cost{}
	for _, b := range testBackends(t) {
		_, cost, err := b.LinearPredict(w, 0, X)
		if err != nil {
			t.Fatal(err)
		}
		costs[b.Name()] = cost
	}
	if costs["he"].CPU <= costs["plain"].CPU {
		t.Fatalf("HE not slower than plain: %v vs %v", costs["he"].CPU, costs["plain"].CPU)
	}
	if costs["he"].CPU <= costs["smc"].CPU {
		t.Fatalf("HE not slower than SMC: %v vs %v", costs["he"].CPU, costs["smc"].CPU)
	}
}

func TestTEELinearPredictMeasurementStable(t *testing.T) {
	m1 := LinearPredictMeasurement()
	m2 := LinearPredictMeasurement()
	if m1 != m2 || m1.IsZero() {
		t.Fatal("measurement unstable")
	}
}

func TestWireFormatRoundTrip(t *testing.T) {
	w := []float64{1.5, -2}
	X := [][]float64{{1, 2}, {3, 4}, {}}
	buf := encodeLinearInput(w, 0.5, X)
	gw, bias, gX, err := decodeLinearInput(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gw) != 2 || gw[0] != 1.5 || gw[1] != -2 || bias != 0.5 {
		t.Fatalf("decoded w=%v bias=%v", gw, bias)
	}
	if len(gX) != 3 || gX[1][1] != 4 || len(gX[2]) != 0 {
		t.Fatalf("decoded X=%v", gX)
	}
}

func TestWireFormatRejectsTruncation(t *testing.T) {
	buf := encodeMatrix([][]float64{{1, 2, 3}})
	if _, err := decodeMatrix(buf[:len(buf)-4]); err == nil {
		t.Fatal("truncated matrix accepted")
	}
	if _, err := decodeFloats([]byte{1, 2}); err == nil {
		t.Fatal("truncated floats accepted")
	}
}

func TestLinkTransferTime(t *testing.T) {
	l := Link{Latency: 10 * simnet.Millisecond, Bandwidth: 1000}
	got := l.TransferTime(500, 2)
	want := 20*simnet.Millisecond + simnet.Second/2
	if got != want {
		t.Fatalf("transfer time = %v, want %v", got, want)
	}
}
