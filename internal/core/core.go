// Package core is the one-call entry point of the PDS² library: a
// declarative Scenario runner that stands up a complete marketplace —
// governance chain, storage node, providers with synthetic data,
// TEE-backed executors — and drives a workload through the full Fig. 2
// lifecycle.
//
// Applications that need finer control use the underlying packages
// directly (market, ledger, contract, storage, tee, gossip, …); the
// examples/ directory shows both styles.
package core

import (
	"fmt"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/market"
	"pds2/internal/ml"
	"pds2/internal/semantic"
	"pds2/internal/storage"
)

// Scenario declares a complete end-to-end marketplace run.
type Scenario struct {
	Seed         uint64  `json:"seed"`
	Providers    int     `json:"providers"`
	Executors    int     `json:"executors"`
	SamplesEach  int     `json:"samples_each"` // training examples per provider
	Dim          int     `json:"dim"`          // feature dimension
	Epochs       int     `json:"epochs"`
	Budget       uint64  `json:"budget"`       // escrowed reward
	ExecutorFee  uint64  `json:"executor_fee"` // basis points
	MinProviders uint64  `json:"min_providers"`
	LabelNoise   float64 `json:"label_noise"`
}

// Defaults fills zero fields with sensible values.
func (s *Scenario) Defaults() {
	if s.Providers == 0 {
		s.Providers = 4
	}
	if s.Executors == 0 {
		s.Executors = 2
	}
	if s.SamplesEach == 0 {
		s.SamplesEach = 200
	}
	if s.Dim == 0 {
		s.Dim = 8
	}
	if s.Epochs == 0 {
		s.Epochs = 3
	}
	if s.Budget == 0 {
		s.Budget = 100_000
	}
	if s.ExecutorFee == 0 {
		s.ExecutorFee = 1_000
	}
	if s.MinProviders == 0 {
		s.MinProviders = uint64(s.Providers)
	}
}

// Result summarizes a scenario run.
type Result struct {
	Workload     identity.Address
	State        market.WorkloadState
	Accuracy     float64 // final model accuracy on held-out data
	Payouts      map[identity.Address]uint64
	Blocks       uint64
	TotalGas     uint64
	AuditEvents  int
	ProviderAddr []identity.Address
	ExecutorAddr []identity.Address
}

// Run stands up a marketplace and drives the scenario through the full
// lifecycle.
func Run(s Scenario) (*Result, error) {
	res, _, err := RunDetailed(s)
	return res, err
}

// RunDetailed is Run, additionally returning the live market so callers
// can inspect contracts, query the audit log or export the chain for
// third-party auditing.
func RunDetailed(s Scenario) (*Result, *market.Market, error) {
	s.Defaults()
	rng := crypto.NewDRBGFromUint64(s.Seed, "scenario")

	ids := make([]*identity.Identity, 0, s.Providers+s.Executors+1)
	alloc := map[identity.Address]uint64{}
	for i := 0; i < s.Providers+s.Executors+1; i++ {
		id := identity.New(fmt.Sprintf("actor-%d", i), rng.Fork("id"))
		ids = append(ids, id)
		alloc[id.Address()] = 1_000_000
	}
	m, err := market.New(market.Config{Seed: s.Seed, GenesisAlloc: alloc})
	if err != nil {
		return nil, nil, err
	}
	node := storage.NewNode(storage.NewMemStore())

	consumer, err := market.NewConsumer(m, ids[0])
	if err != nil {
		return nil, nil, err
	}

	data, _ := ml.GenerateClassification(ml.SyntheticConfig{
		N: s.SamplesEach * s.Providers, Dim: s.Dim, LabelNoise: s.LabelNoise,
	}, rng)
	train, test := data.TrainTestSplit(0.25, rng)
	parts := train.PartitionIID(s.Providers, rng)

	providers := make([]*market.Provider, 0, s.Providers)
	for i := 0; i < s.Providers; i++ {
		p, err := market.NewProvider(m, ids[1+i], node)
		if err != nil {
			return nil, nil, err
		}
		if _, err := p.AddDataset(parts[i], semantic.Metadata{
			"category": semantic.String("sensor.generic"),
			"samples":  semantic.Number(float64(parts[i].Len())),
		}); err != nil {
			return nil, nil, err
		}
		providers = append(providers, p)
	}
	executors := make([]*market.Executor, 0, s.Executors)
	for i := 0; i < s.Executors; i++ {
		e, err := market.NewExecutor(m, ids[1+s.Providers+i], node)
		if err != nil {
			return nil, nil, err
		}
		executors = append(executors, e)
	}

	params := market.TrainerParams{Dim: uint64(s.Dim), Epochs: uint64(s.Epochs), Lambda: 1e-3}
	spec := &market.Spec{
		Predicate:      `category isa "sensor" and samples >= 1`,
		MinProviders:   s.MinProviders,
		MinItems:       s.MinProviders,
		ExpiryHeight:   m.Height() + 100_000,
		ExecutorFeeBps: s.ExecutorFee,
		Measurement:    market.TrainerMeasurement(params.Encode()),
		QAPub:          m.QA.PublicKey(),
		Params:         params.Encode(),
	}

	before := map[identity.Address]uint64{}
	for _, id := range ids {
		before[id.Address()] = m.Chain.State().Balance(id.Address())
	}

	workload, payload, err := market.RunLifecycle(consumer, spec, s.Budget, providers, executors)
	if err != nil {
		return nil, nil, err
	}

	model, _, err := market.DecodeResultModel(payload, params.Lambda)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{
		Workload: workload,
		Accuracy: ml.Accuracy(model, test),
		Payouts:  map[identity.Address]uint64{},
		Blocks:   m.Height(),
	}
	res.State, err = m.WorkloadStateOf(workload)
	if err != nil {
		return nil, nil, err
	}
	for _, id := range ids[1:] {
		gain := m.Chain.State().Balance(id.Address()) - before[id.Address()]
		if gain > 0 {
			res.Payouts[id.Address()] = gain
		}
	}
	for i := uint64(1); i <= m.Height(); i++ {
		b, err := m.Chain.BlockAt(i)
		if err != nil {
			return nil, nil, err
		}
		res.TotalGas += b.Header.GasUsed
	}
	res.AuditEvents = len(m.Chain.Events(""))
	for _, p := range providers {
		res.ProviderAddr = append(res.ProviderAddr, p.ID.Address())
	}
	for _, e := range executors {
		res.ExecutorAddr = append(res.ExecutorAddr, e.ID.Address())
	}
	return res, m, nil
}
