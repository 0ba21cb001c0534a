package experiments

import (
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/market"
	"pds2/internal/ml"
	"pds2/internal/semantic"
	"pds2/internal/storage"
)

// A4Poisoning measures the aggregation-rule choice §II-F leaves to the
// consumer: a malicious executor feeds a flipped, blown-up local model
// into the aggregation. All executors aggregate the same inputs, so the
// result hashes agree and the E14 consistency check cannot fire — only
// a robust rule protects the result.
func A4Poisoning(quick bool) Table {
	t := Table{
		ID:         "A4",
		Title:      "Ablation: aggregation rule under a poisoned local model",
		PaperClaim: "§II-F: consumers direct executors to use one of several decentralized aggregation mechanisms; robustness is one reason to choose",
		Columns:    []string{"aggregation", "poisoned-executors", "state", "final-accuracy"},
	}
	for _, agg := range []string{"mean", "median"} {
		for _, poisoned := range []int{0, 1} {
			st, acc, err := runPoisonedWorkload(agg, poisoned, quick)
			if err != nil {
				t.AddRow(agg, poisoned, "ERROR", err.Error())
				continue
			}
			t.AddRow(agg, poisoned, st.String(), acc)
		}
	}
	t.Notes = append(t.Notes,
		"1 of 3 executors poisons its local model (sign-flipped, scaled 1e6)",
		"state stays complete in all cases: the attack is invisible to result-consistency, which is exactly why the median matters")
	return t
}

func runPoisonedWorkload(aggregation string, poisoned int, quick bool) (market.WorkloadState, float64, error) {
	const nProviders, nExecutors = 3, 3
	samples := 300
	if quick {
		samples = 150
	}
	rng := crypto.NewDRBGFromUint64(44, "a4")
	ids := make([]*identity.Identity, 0, nProviders+nExecutors+1)
	alloc := map[identity.Address]uint64{}
	for i := 0; i < nProviders+nExecutors+1; i++ {
		id := identity.New("a", rng.Fork("id"))
		ids = append(ids, id)
		alloc[id.Address()] = 1_000_000
	}
	m, err := market.New(market.Config{Seed: 44, GenesisAlloc: alloc})
	if err != nil {
		return 0, 0, err
	}
	node := storage.NewNode(storage.NewMemStore())
	consumer, err := market.NewConsumer(m, ids[0])
	if err != nil {
		return 0, 0, err
	}
	data, _ := ml.GenerateClassification(ml.SyntheticConfig{N: samples * nProviders, Dim: 8, LabelNoise: 0.05}, rng)
	train, test := data.TrainTestSplit(0.25, rng)
	parts := train.PartitionIID(nProviders, rng)

	providers := make([]*market.Provider, nProviders)
	for i := range providers {
		providers[i], err = market.NewProvider(m, ids[1+i], node)
		if err != nil {
			return 0, 0, err
		}
		if _, err := providers[i].AddDataset(parts[i], semantic.Metadata{
			"category": semantic.String("sensor.x"),
			"samples":  semantic.Number(float64(parts[i].Len())),
		}); err != nil {
			return 0, 0, err
		}
	}
	executors := make([]*market.Executor, nExecutors)
	for i := range executors {
		executors[i], err = market.NewExecutor(m, ids[1+nProviders+i], node)
		if err != nil {
			return 0, 0, err
		}
		executors[i].PoisonLocal = i < poisoned
	}

	params := market.TrainerParams{Dim: 8, Epochs: 2, Lambda: 1e-3, Aggregation: aggregation}
	spec := &market.Spec{
		Predicate:      `category isa "sensor"`,
		MinProviders:   nProviders,
		MinItems:       nProviders,
		ExpiryHeight:   m.Height() + 10_000,
		ExecutorFeeBps: 1_000,
		Measurement:    market.TrainerMeasurement(params.Encode()),
		QAPub:          m.QA.PublicKey(),
		Params:         params.Encode(),
	}
	addr, payload, err := market.RunLifecycle(consumer, spec, 30_000, providers, executors)
	if err != nil {
		return 0, 0, err
	}
	st, err := m.WorkloadStateOf(addr)
	if err != nil {
		return 0, 0, err
	}
	model, _, err := market.DecodeResultModel(payload, params.Lambda)
	if err != nil {
		return 0, 0, err
	}
	return st, ml.Accuracy(model, test), nil
}

func init() {
	All = append(All, Experiment{"A4", "ablation: aggregation rule under poisoning", A4Poisoning})
}
