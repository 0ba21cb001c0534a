package ml

import (
	"math"
	"testing"
	"testing/quick"

	"pds2/internal/crypto"
)

func TestDotAxpyScaleNorm(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("dot = %v", Dot(a, b))
	}
	y := CloneVec(b)
	Axpy(2, a, y) // y = b + 2a = [6, 9, 12]
	if y[0] != 6 || y[1] != 9 || y[2] != 12 {
		t.Fatalf("axpy = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3 || y[1] != 4.5 || y[2] != 6 {
		t.Fatalf("scale = %v", y)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("norm = %v", got)
	}
}

func TestDotMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestSigmoid(t *testing.T) {
	if s := Sigmoid(0); s != 0.5 {
		t.Fatalf("sigmoid(0) = %v", s)
	}
	if s := Sigmoid(100); s < 0.999 {
		t.Fatalf("sigmoid(100) = %v", s)
	}
	if s := Sigmoid(-100); s > 0.001 {
		t.Fatalf("sigmoid(-100) = %v", s)
	}
	// Stability: huge negative input must not NaN.
	if s := Sigmoid(-1e9); math.IsNaN(s) {
		t.Fatal("sigmoid NaN")
	}
	// Symmetry property.
	f := func(z float64) bool {
		if math.IsNaN(z) || math.IsInf(z, 0) || math.Abs(z) > 500 {
			return true
		}
		return math.Abs(Sigmoid(z)+Sigmoid(-z)-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogisticLearnsSeparableData(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(1, "ml")
	data, _ := GenerateClassification(SyntheticConfig{N: 2000, Dim: 10, LabelNoise: 0}, rng)
	train, test := data.TrainTestSplit(0.25, rng)

	m := NewLogisticModel(10, 1e-3)
	TrainEpochs(m, train, 5)
	if acc := Accuracy(m, test); acc < 0.9 {
		t.Fatalf("logistic accuracy on separable data = %v", acc)
	}
}

func TestModelAgeCountsUpdates(t *testing.T) {
	m := NewLogisticModel(3, 0)
	x := []float64{1, 0, 0}
	for i := 0; i < 7; i++ {
		m.Update(x, 1)
	}
	if m.Age() != 7 {
		t.Fatalf("age = %d", m.Age())
	}
}

func TestMergeConvexCombination(t *testing.T) {
	a := NewLogisticModel(2, 1e-4)
	b := NewLogisticModel(2, 1e-4)
	a.W = []float64{1, 2}
	b.W = []float64{3, 6}
	a.SetAge(10)
	b.SetAge(30)
	if err := a.MergeFrom(b, 0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	if a.W[0] != 2 || a.W[1] != 4 {
		t.Fatalf("merged W = %v", a.W)
	}
	if a.Age() != 20 {
		t.Fatalf("merged age = %d", a.Age())
	}
}

// otherModel is a Model of another type; merging it must fail before
// any of its methods is called.
type otherModel struct{ Model }

func TestMergeTypeMismatch(t *testing.T) {
	a := NewLogisticModel(2, 1e-4)
	if err := a.MergeFrom(otherModel{}, 0.5, 0.5); err == nil {
		t.Fatal("cross-type merge accepted")
	}
}

func TestMergeDimMismatch(t *testing.T) {
	a := NewLogisticModel(2, 1e-4)
	b := NewLogisticModel(3, 1e-4)
	if err := a.MergeFrom(b, 0.5, 0.5); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewLogisticModel(2, 1e-4)
	m.W = []float64{1, 1}
	c := m.Clone().(*LogisticModel)
	c.W[0] = 99
	if m.W[0] != 1 {
		t.Fatal("clone shares weights")
	}
}

func TestGenerateClassificationShapes(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(4, "ml")
	d, truth := GenerateClassification(SyntheticConfig{N: 100, Dim: 7}, rng)
	if d.Len() != 100 || d.Dim() != 7 || len(truth) != 7 {
		t.Fatalf("shapes: %d %d %d", d.Len(), d.Dim(), len(truth))
	}
	for _, y := range d.Y {
		if y != 1 && y != -1 {
			t.Fatalf("label %v", y)
		}
	}
}

func TestLabelNoiseRate(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(5, "ml")
	d, truth := GenerateClassification(SyntheticConfig{N: 5000, Dim: 5, LabelNoise: 0.2}, rng)
	flipped := 0
	for i := range d.X {
		want := 1.0
		if Dot(truth, d.X[i]) < 0 {
			want = -1
		}
		if d.Y[i] != want {
			flipped++
		}
	}
	rate := float64(flipped) / float64(d.Len())
	if math.Abs(rate-0.2) > 0.03 {
		t.Fatalf("label noise rate = %v", rate)
	}
}

func TestPartitionIIDCoversAll(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(6, "ml")
	d, _ := GenerateClassification(SyntheticConfig{N: 103, Dim: 3}, rng)
	parts := d.PartitionIID(10, rng)
	total := 0
	for _, p := range parts {
		total += p.Len()
		if p.Len() < 10 || p.Len() > 11 {
			t.Fatalf("unbalanced part: %d", p.Len())
		}
	}
	if total != 103 {
		t.Fatalf("partition lost examples: %d", total)
	}
}

func TestPartitionByLabelIsSingleClass(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(7, "ml")
	d, _ := GenerateClassification(SyntheticConfig{N: 1000, Dim: 3}, rng)
	parts := d.PartitionByLabel(10, rng)
	total := 0
	for i, p := range parts {
		total += p.Len()
		if p.Len() == 0 {
			continue
		}
		first := p.Y[0]
		for _, y := range p.Y {
			if y != first {
				t.Fatalf("node %d mixes classes", i)
			}
		}
	}
	if total != 1000 {
		t.Fatalf("partition lost examples: %d", total)
	}
}

func TestTrainTestSplitDisjointAndComplete(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(8, "ml")
	d, _ := GenerateClassification(SyntheticConfig{N: 100, Dim: 2}, rng)
	train, test := d.TrainTestSplit(0.3, rng)
	if test.Len() != 30 || train.Len() != 70 {
		t.Fatalf("split sizes: %d/%d", train.Len(), test.Len())
	}
}

func TestDatasetHashSensitive(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(9, "ml")
	d, _ := GenerateClassification(SyntheticConfig{N: 20, Dim: 3}, rng)
	h1 := d.Hash()
	if h1 != d.Hash() {
		t.Fatal("hash not deterministic")
	}
	d.Y[0] = -d.Y[0]
	if d.Hash() == h1 {
		t.Fatal("hash insensitive to label change")
	}
}

func TestMetricsEdgeCases(t *testing.T) {
	m := NewLogisticModel(2, 1e-4)
	empty := &Dataset{}
	if ZeroOneError(m, empty) != 0 {
		t.Fatal("empty dataset metrics not zero")
	}
}

func TestGenerateSensorReadings(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(11, "ml")
	d := GenerateSensorReadings(2000, 0.1, rng)
	pos := 0
	for _, y := range d.Y {
		if y == 1 {
			pos++
		}
	}
	rate := float64(pos) / float64(d.Len())
	if math.Abs(rate-0.1) > 0.03 {
		t.Fatalf("anomaly rate = %v", rate)
	}
	// Anomalies must be learnable.
	train, test := d.TrainTestSplit(0.25, rng)
	m := NewLogisticModel(d.Dim(), 1e-3)
	TrainEpochs(m, train, 10)
	if acc := Accuracy(m, test); acc < 0.9 {
		t.Fatalf("sensor anomaly accuracy = %v", acc)
	}
}

func TestSubsetAndConcat(t *testing.T) {
	d := &Dataset{
		X: [][]float64{{1}, {2}, {3}, {4}},
		Y: []float64{1, -1, 1, -1},
	}
	s := d.Subset([]int{0, 2})
	if s.Len() != 2 || s.X[1][0] != 3 {
		t.Fatalf("subset: %+v", s)
	}
	c := Concat(s, d.Subset([]int{3}))
	if c.Len() != 3 || c.Y[2] != -1 {
		t.Fatalf("concat: %+v", c)
	}
}

func TestIntercept(t *testing.T) {
	lm := NewLogisticModel(2, 1e-3)
	lm.SetIntercept(1.5)
	if lm.Intercept() != 1.5 {
		t.Fatal("logistic intercept")
	}
}
