package ml

import (
	"fmt"
	"math"
)

// Model is the training-state abstraction shared by gossip learning,
// federated learning and the oblivious-execution backends;
// LogisticModel implements it.
//
// Age counts the total number of SGD examples a model has absorbed; the
// gossip-learning merge rule weighs models by age so that a model that
// has seen more data dominates the average ([22], [25]).
type Model interface {
	// Update performs one SGD step on example (x, y). Labels are ±1.
	Update(x []float64, y float64)

	// Predict returns the raw decision value for x (positive = class +1).
	Predict(x []float64) float64

	// Age returns the number of examples absorbed so far.
	Age() uint64

	// Clone returns an independent deep copy.
	Clone() Model

	// MergeFrom folds another model into this one with the given convex
	// weights (selfWeight + otherWeight should be 1).
	MergeFrom(other Model, selfWeight, otherWeight float64) error

	// Weights exposes the parameter vector (shared slice, not a copy).
	Weights() []float64

	// Intercept returns the bias term.
	Intercept() float64

	// SetIntercept overrides the bias term.
	SetIntercept(b float64)

	// WireSize returns the serialized size in bytes, used by the network
	// simulator for bandwidth accounting.
	WireSize() int
}

// LogisticModel is L2-regularized logistic regression trained by SGD with
// the 1/(lambda*t) Pegasos-style learning-rate schedule.
type LogisticModel struct {
	W      []float64
	Bias   float64
	Lambda float64 // L2 regularization strength
	age    uint64
}

// NewLogisticModel creates a zero-initialized model for dim features.
func NewLogisticModel(dim int, lambda float64) *LogisticModel {
	if lambda <= 0 {
		lambda = 1e-4
	}
	return &LogisticModel{W: make([]float64, dim), Lambda: lambda}
}

// Update implements Model. y must be ±1.
func (m *LogisticModel) Update(x []float64, y float64) {
	m.age++
	lr := 1 / (m.Lambda * float64(m.age+1))
	// Gradient of log loss: -y*sigmoid(-y*z)*x  (for y in ±1)
	z := Dot(m.W, x) + m.Bias
	g := -y * Sigmoid(-y*z)
	// L2 shrink then gradient step.
	Scale(1-lr*m.Lambda, m.W)
	Axpy(-lr*g, x, m.W)
	m.Bias -= lr * g
}

// Predict implements Model.
func (m *LogisticModel) Predict(x []float64) float64 {
	return Dot(m.W, x) + m.Bias
}

// Age implements Model.
func (m *LogisticModel) Age() uint64 { return m.age }

// SetAge overrides the example counter; used when injecting pre-trained
// models into a simulation.
func (m *LogisticModel) SetAge(a uint64) { m.age = a }

// Clone implements Model.
func (m *LogisticModel) Clone() Model {
	return &LogisticModel{W: CloneVec(m.W), Bias: m.Bias, Lambda: m.Lambda, age: m.age}
}

// MergeFrom implements Model: convex combination of parameters; ages add
// proportionally to the mixing weights, following the gossip-learning
// merge rule.
func (m *LogisticModel) MergeFrom(other Model, selfWeight, otherWeight float64) error {
	o, ok := other.(*LogisticModel)
	if !ok {
		return fmt.Errorf("ml: cannot merge %T into LogisticModel", other)
	}
	if len(o.W) != len(m.W) {
		return fmt.Errorf("ml: merge dimension mismatch: %d vs %d", len(o.W), len(m.W))
	}
	for i := range m.W {
		m.W[i] = selfWeight*m.W[i] + otherWeight*o.W[i]
	}
	m.Bias = selfWeight*m.Bias + otherWeight*o.Bias
	m.age = uint64(math.Round(selfWeight*float64(m.age) + otherWeight*float64(o.age)))
	return nil
}

// Weights implements Model.
func (m *LogisticModel) Weights() []float64 { return m.W }

// Intercept implements Model.
func (m *LogisticModel) Intercept() float64 { return m.Bias }

// SetIntercept implements Model.
func (m *LogisticModel) SetIntercept(b float64) { m.Bias = b }

// WireSize implements Model: 8 bytes per weight plus bias and age.
func (m *LogisticModel) WireSize() int { return 8*len(m.W) + 8 + 8 }
