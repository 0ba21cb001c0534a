// Package ml is the machine-learning substrate of PDS². The paper's
// workloads of interest are "ML training tasks … one of the most relevant
// and valuable data aggregation workloads" (§I); this package provides
// the model those workloads train — logistic regression with the
// Pegasos-style schedule of the gossip-learning literature the paper
// builds on [22][25] — together with dense vector kernels, synthetic
// dataset generators with controllable non-IID partitioning, and
// evaluation metrics.
package ml

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It panics on mismatched
// lengths, which always indicates a programming error.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("ml: dot of mismatched lengths %d and %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha * x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("ml: axpy of mismatched lengths %d and %d", len(x), len(y)))
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	return append([]float64(nil), x...)
}

// Sigmoid is the logistic function, computed in a numerically stable way
// for large negative inputs.
func Sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}
