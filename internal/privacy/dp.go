// Package privacy implements the §IV-D leakage defences: a privacy-budget
// ledger with additive composition, differentially-private model release
// via clipping plus Gaussian output perturbation (noise scale from the
// analytic Gaussian mechanism bound), and a membership-inference
// attack harness that *measures* how much a released model leaks about
// its training data — the "previous works have measured the extent of
// this issue" [36] side of the section, which experiment E12 reproduces
// with and without DP.
package privacy

import (
	"errors"
	"fmt"
	"math"

	"pds2/internal/crypto"
	"pds2/internal/ml"
)

// GaussianSigma returns the noise standard deviation of the analytic
// Gaussian mechanism bound σ = √(2 ln(1.25/δ)) · sensitivity / ε, valid
// for ε ≤ 1 and commonly used beyond.
func GaussianSigma(sensitivity, epsilon, delta float64) (float64, error) {
	if epsilon <= 0 || delta <= 0 || delta >= 1 || sensitivity < 0 {
		return 0, fmt.Errorf("privacy: invalid parameters eps=%v delta=%v sens=%v", epsilon, delta, sensitivity)
	}
	return math.Sqrt(2*math.Log(1.25/delta)) * sensitivity / epsilon, nil
}

// Ledger tracks a privacy budget under basic (additive) composition:
// every released query spends its (ε, δ), and releases beyond the budget
// are refused. In PDS² the executor maintains one ledger per (provider,
// consumer) pair, implementing §IV-D's "apply the most suitable measures
// to limit" leakage.
type Ledger struct {
	EpsBudget   float64
	DeltaBudget float64
	spentEps    float64
	spentDelta  float64
	releases    int
}

// NewLedger creates a budget ledger.
func NewLedger(epsBudget, deltaBudget float64) *Ledger {
	return &Ledger{EpsBudget: epsBudget, DeltaBudget: deltaBudget}
}

// ErrBudgetExhausted is returned when a release would exceed the budget.
var ErrBudgetExhausted = errors.New("privacy: budget exhausted")

// Spend records a release of (eps, delta), failing without recording if
// the budget would be exceeded.
func (l *Ledger) Spend(eps, delta float64) error {
	if eps <= 0 || delta < 0 {
		return fmt.Errorf("privacy: invalid spend eps=%v delta=%v", eps, delta)
	}
	if l.spentEps+eps > l.EpsBudget || l.spentDelta+delta > l.DeltaBudget {
		return fmt.Errorf("%w: spent (%.3f, %.2g) of (%.3f, %.2g)",
			ErrBudgetExhausted, l.spentEps, l.spentDelta, l.EpsBudget, l.DeltaBudget)
	}
	l.spentEps += eps
	l.spentDelta += delta
	l.releases++
	return nil
}

// Spent returns the cumulative (ε, δ) consumed so far.
func (l *Ledger) Spent() (eps, delta float64) { return l.spentEps, l.spentDelta }

// Releases returns the number of recorded releases.
func (l *Ledger) Releases() int { return l.releases }

// ClipL2 scales the vector down to the given L2 norm bound if it exceeds
// it, returning the scaling factor applied (1 when unchanged).
func ClipL2(v []float64, bound float64) float64 {
	if bound <= 0 {
		return 1
	}
	norm := ml.Norm2(v)
	if norm <= bound {
		return 1
	}
	f := bound / norm
	ml.Scale(f, v)
	return f
}

// ReleaseModelDP produces an (epsilon, delta)-DP copy of a trained model
// by output perturbation: clip the weights to L2 norm clip (bounding any
// one example's influence on the released weights) and add Gaussian
// noise calibrated to that sensitivity. The ledger, when non-nil, is
// charged.
func ReleaseModelDP(m ml.Model, clip, epsilon, delta float64, ledger *Ledger, rng *crypto.DRBG) (ml.Model, error) {
	if clip <= 0 {
		return nil, errors.New("privacy: clip bound must be positive")
	}
	sigma, err := GaussianSigma(2*clip, epsilon, delta) // neighbour models differ by ≤ 2·clip
	if err != nil {
		return nil, err
	}
	if ledger != nil {
		if err := ledger.Spend(epsilon, delta); err != nil {
			return nil, err
		}
	}
	out := m.Clone()
	w := out.Weights()
	ClipL2(w, clip)
	for i := range w {
		w[i] += sigma * rng.NormFloat64()
	}
	return out, nil
}
