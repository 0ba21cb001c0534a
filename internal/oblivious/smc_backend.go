package oblivious

import (
	"time"

	"pds2/internal/crypto"
	"pds2/internal/simnet"
	"pds2/internal/smc"
)

// SMC evaluates workloads under additive secret sharing among NumParties
// executors (Falcon-style honest majority [14]). Both the model and the
// data are shared, so no single executor learns either; the price is one
// communication round per multiplication batch, charged against Link.
type SMC struct {
	NumParties int
	Link       Link
	seed       uint64
}

// NewSMC creates an SMC backend with n parties.
func NewSMC(n int, seed uint64, link Link) *SMC {
	if n < 2 {
		n = 3
	}
	return &SMC{NumParties: n, Link: link, seed: seed}
}

// Name implements Backend.
func (*SMC) Name() string { return "smc" }

// LinearPredict implements Backend: share w and every row, one Beaver
// batch per row, open the scores.
func (s *SMC) LinearPredict(w []float64, bias float64, X [][]float64) ([]float64, Cost, error) {
	if err := validateLinear(w, X); err != nil {
		return nil, Cost{}, err
	}
	start := time.Now()
	engine, err := smc.NewEngine(s.NumParties, crypto.NewDRBGFromUint64(s.seed, "smc-backend"))
	if err != nil {
		return nil, Cost{}, err
	}
	engine.DealTriples(len(X) * len(w))
	sw := engine.Share(w, smc.FixedScale)

	out := make([]float64, len(X))
	for i, row := range X {
		sx := engine.Share(row, smc.FixedScale)
		dot, err := engine.Dot(sx, sw)
		if err != nil {
			return nil, Cost{}, err
		}
		vals := engine.Open(dot)
		out[i] = vals[0] + bias
	}
	cpu := time.Since(start)
	cost := Cost{
		CPU:        cpu,
		CommBytes:  engine.BytesSent,
		CommRounds: engine.Rounds,
		Virtual:    simnet.Time(cpu.Microseconds()) + engine.VirtualTime(s.Link.Latency, s.Link.Bandwidth),
	}
	return out, cost, nil
}
