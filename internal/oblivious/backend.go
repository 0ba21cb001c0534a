// Package oblivious defines the privacy-preserving execution backends of
// PDS². §II-E requires that "the details of the data and of the workload
// computation must be invisible to all actors involved"; §III-B surveys
// three technologies able to provide that — homomorphic encryption,
// secure multiparty computation and trusted execution environments — and
// selects TEEs. This package puts all three (plus a non-private plain
// baseline) behind one Backend interface so that executors can swap them
// per workload (§II-F "consumers may direct the executors to use one of
// several … mechanisms") and so that experiments E3–E5 can compare their
// costs under identical workloads.
package oblivious

import (
	"fmt"
	"time"

	"pds2/internal/simnet"
)

// Cost reports what one backend operation consumed.
type Cost struct {
	// CPU is the real compute time spent in this process.
	CPU time.Duration

	// CommBytes and CommRounds count the communication a real deployment
	// of the backend would perform.
	CommBytes  int64
	CommRounds int

	// Virtual is the modelled end-to-end latency: compute time adjusted
	// by the backend's overhead model plus communication time under the
	// backend's link model.
	Virtual simnet.Time
}

// Link models the network between the participants of a backend protocol
// (provider ↔ executor for HE, party ↔ party for SMC).
type Link struct {
	Latency   simnet.Time
	Bandwidth int64 // bytes per second; 0 = unlimited
}

// TransferTime returns the modelled time to move the given bytes over
// the link in the given number of rounds.
func (l Link) TransferTime(bytes int64, rounds int) simnet.Time {
	t := simnet.Time(rounds) * l.Latency
	if l.Bandwidth > 0 {
		t += simnet.Time(bytes * int64(simnet.Second) / l.Bandwidth)
	}
	return t
}

// Backend evaluates workloads across a privacy boundary: the caller
// plays the executor, which must not learn the data (and, depending on
// the backend, not the model either).
type Backend interface {
	// Name identifies the backend in reports ("plain", "tee", "he", "smc").
	Name() string

	// LinearPredict computes w·x + bias for every row of X.
	LinearPredict(w []float64, bias float64, X [][]float64) ([]float64, Cost, error)
}

// validateLinear checks common preconditions for LinearPredict.
func validateLinear(w []float64, X [][]float64) error {
	for i, row := range X {
		if len(row) != len(w) {
			return fmt.Errorf("oblivious: row %d has %d features, model has %d", i, len(row), len(w))
		}
	}
	return nil
}

// Plain is the no-privacy baseline: direct computation, zero
// communication. It is the denominator of every overhead ratio.
type Plain struct{}

// Name implements Backend.
func (Plain) Name() string { return "plain" }

// LinearPredict implements Backend.
func (Plain) LinearPredict(w []float64, bias float64, X [][]float64) ([]float64, Cost, error) {
	if err := validateLinear(w, X); err != nil {
		return nil, Cost{}, err
	}
	start := time.Now()
	out := make([]float64, len(X))
	for i, row := range X {
		s := bias
		for j, v := range row {
			s += v * w[j]
		}
		out[i] = s
	}
	cpu := time.Since(start)
	return out, Cost{CPU: cpu, Virtual: simnet.Time(cpu.Microseconds())}, nil
}
