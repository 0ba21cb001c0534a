package ml

// Predictor is anything that maps a feature vector to a decision value;
// both Model implementations and oblivious-execution backends satisfy it.
type Predictor interface {
	Predict(x []float64) float64
}

// ZeroOneError returns the misclassification rate of p on d (labels ±1),
// the metric reported by the gossip-learning literature [25].
func ZeroOneError(p Predictor, d *Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	wrong := 0
	for i := range d.X {
		pred := 1.0
		if p.Predict(d.X[i]) < 0 {
			pred = -1
		}
		if pred != d.Y[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(d.Len())
}

// Accuracy is 1 - ZeroOneError.
func Accuracy(p Predictor, d *Dataset) float64 {
	return 1 - ZeroOneError(p, d)
}

// TrainEpochs runs SGD over the dataset for the given number of epochs,
// in order. Callers that want stochastic order shuffle first.
func TrainEpochs(m Model, d *Dataset, epochs int) {
	for e := 0; e < epochs; e++ {
		for i := range d.X {
			m.Update(d.X[i], d.Y[i])
		}
	}
}
