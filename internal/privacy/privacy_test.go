package privacy

import (
	"errors"
	"math"
	"testing"

	"pds2/internal/crypto"
	"pds2/internal/ml"
)

func TestGaussianSigmaScaling(t *testing.T) {
	s1, err := GaussianSigma(1, 1, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := GaussianSigma(1, 2, 1e-5)
	if s2 >= s1 {
		t.Fatal("sigma not decreasing in epsilon")
	}
	s3, _ := GaussianSigma(2, 1, 1e-5)
	if math.Abs(s3-2*s1) > 1e-9 {
		t.Fatal("sigma not linear in sensitivity")
	}
	if _, err := GaussianSigma(1, 1, 1.5); err == nil {
		t.Fatal("delta >= 1 accepted")
	}
}

func TestLedgerComposition(t *testing.T) {
	l := NewLedger(1.0, 1e-4)
	if err := l.Spend(0.4, 1e-5); err != nil {
		t.Fatal(err)
	}
	if err := l.Spend(0.4, 1e-5); err != nil {
		t.Fatal(err)
	}
	if err := l.Spend(0.4, 1e-5); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	eps, delta := l.Spent()
	if math.Abs(eps-0.8) > 1e-9 || math.Abs(delta-2e-5) > 1e-12 {
		t.Fatalf("spent = (%v, %v)", eps, delta)
	}
	if l.Releases() != 2 {
		t.Fatalf("releases = %d", l.Releases())
	}
	if err := l.Spend(-1, 0); err == nil {
		t.Fatal("negative spend accepted")
	}
}

func TestLedgerDeltaBudget(t *testing.T) {
	l := NewLedger(100, 1e-5)
	if err := l.Spend(0.1, 1e-5); err != nil {
		t.Fatal(err)
	}
	if err := l.Spend(0.1, 1e-6); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatal("delta budget not enforced")
	}
}

func TestClipL2(t *testing.T) {
	v := []float64{3, 4} // norm 5
	f := ClipL2(v, 1)
	if math.Abs(f-0.2) > 1e-9 {
		t.Fatalf("factor = %v", f)
	}
	if math.Abs(ml.Norm2(v)-1) > 1e-9 {
		t.Fatalf("norm after clip = %v", ml.Norm2(v))
	}
	// Under the bound: untouched.
	v2 := []float64{0.1, 0.1}
	if f := ClipL2(v2, 1); f != 1 || v2[0] != 0.1 {
		t.Fatal("clip modified small vector")
	}
}

func TestReleaseModelDPChargesLedger(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(4, "dp")
	m := ml.NewLogisticModel(4, 1e-3)
	ledger := NewLedger(1.0, 1e-4)
	if _, err := ReleaseModelDP(m, 1, 0.6, 1e-5, ledger, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := ReleaseModelDP(m, 1, 0.6, 1e-5, ledger, rng); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
}

func TestReleaseModelDPDoesNotMutateOriginal(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(5, "dp")
	m := ml.NewLogisticModel(2, 1e-3)
	m.W[0] = 10 // above clip bound
	released, err := ReleaseModelDP(m, 1, 1, 1e-5, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if m.W[0] != 10 {
		t.Fatal("original model clipped")
	}
	if released.Weights()[0] == 10 {
		t.Fatal("released model not clipped/noised")
	}
}

func TestMembershipAttackDetectsOverfitting(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(6, "attack")
	data, _ := ml.GenerateClassification(ml.SyntheticConfig{N: 400, Dim: 20, LabelNoise: 0.2}, rng)
	train, test := data.TrainTestSplit(0.5, rng)

	overfit := TrainOverfitModel(train, 300)
	res, err := MembershipAttack(overfit, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.Advantage < 0.1 {
		t.Fatalf("attack advantage on overfit model = %v, expected measurable leakage", res.Advantage)
	}
	if res.AUC < 0.55 {
		t.Fatalf("attack AUC = %v", res.AUC)
	}
}

func TestDPReducesAttackAdvantage(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(7, "attack")
	data, _ := ml.GenerateClassification(ml.SyntheticConfig{N: 400, Dim: 20, LabelNoise: 0.2}, rng)
	train, test := data.TrainTestSplit(0.5, rng)

	overfit := TrainOverfitModel(train, 300)
	raw, _ := MembershipAttack(overfit, train, test)

	private, err := ReleaseModelDP(overfit, 1.0, 0.5, 1e-5, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	dp, _ := MembershipAttack(private, train, test)
	if dp.Advantage >= raw.Advantage {
		t.Fatalf("DP did not reduce advantage: %v -> %v", raw.Advantage, dp.Advantage)
	}
}

func TestAccuracyCostOfDP(t *testing.T) {
	// Stronger privacy (smaller epsilon) must cost accuracy,
	// at least monotonically in expectation across a wide sweep.
	rng := crypto.NewDRBGFromUint64(8, "tradeoff")
	data, _ := ml.GenerateClassification(ml.SyntheticConfig{N: 3000, Dim: 10}, rng)
	train, test := data.TrainTestSplit(0.3, rng)
	m := ml.NewLogisticModel(10, 1e-3)
	ml.TrainEpochs(m, train, 5)
	base := ml.Accuracy(m, test)

	accAt := func(eps float64) float64 {
		var sum float64
		const trials = 10
		for i := 0; i < trials; i++ {
			rel, err := ReleaseModelDP(m, 1.0, eps, 1e-5, nil, rng)
			if err != nil {
				t.Fatal(err)
			}
			sum += ml.Accuracy(rel, test)
		}
		return sum / trials
	}
	tight := accAt(0.1)
	loose := accAt(10)
	if !(tight < loose) {
		t.Fatalf("accuracy not increasing with epsilon: %v vs %v", tight, loose)
	}
	if loose > base+0.01 {
		t.Fatalf("noisy model beats base: %v > %v", loose, base)
	}
}

func TestMembershipAttackValidation(t *testing.T) {
	m := ml.NewLogisticModel(2, 1e-3)
	if _, err := MembershipAttack(m, &ml.Dataset{}, &ml.Dataset{}); err == nil {
		t.Fatal("empty sets accepted")
	}
}

func TestReleaseModelDPValidation(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(9, "dp")
	m := ml.NewLogisticModel(2, 1e-3)
	if _, err := ReleaseModelDP(m, 0, 1, 1e-5, nil, rng); err == nil {
		t.Fatal("zero clip accepted")
	}
	if _, err := ReleaseModelDP(m, 1, 0, 1e-5, nil, rng); err == nil {
		t.Fatal("zero epsilon accepted")
	}
}
