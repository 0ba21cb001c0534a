package experiments

import (
	"encoding/json"
	"fmt"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/market"
	"pds2/internal/ml"
	"pds2/internal/semantic"
	"pds2/internal/storage"
)

// e13World is a small two-provider marketplace whose storage and
// execution placement can be varied per Fig. 3.
type e13World struct {
	m         *market.Market
	consumer  *market.Consumer
	providers []*market.Provider
	executors []*market.Executor
	spec      *market.Spec
	thirdNode *storage.Node
	ownNodes  []*storage.Node
}

func newE13World(seed uint64, ownStorage, ownExecution bool) (*e13World, error) {
	rng := crypto.NewDRBGFromUint64(seed, "e13")
	const nProviders = 2
	ids := make([]*identity.Identity, 0, nProviders*2+1)
	alloc := map[identity.Address]uint64{}
	for i := 0; i < nProviders*2+1; i++ {
		id := identity.New("a", rng.Fork("id"))
		ids = append(ids, id)
		alloc[id.Address()] = 1_000_000
	}
	m, err := market.New(market.Config{Seed: seed, GenesisAlloc: alloc})
	if err != nil {
		return nil, err
	}
	w := &e13World{m: m, thirdNode: storage.NewNode(storage.NewMemStore())}
	if w.consumer, err = market.NewConsumer(m, ids[0]); err != nil {
		return nil, err
	}

	data, _ := ml.GenerateClassification(ml.SyntheticConfig{N: 200, Dim: 6, LabelNoise: 0.05}, rng)
	parts := data.PartitionIID(nProviders, rng)

	for i := 0; i < nProviders; i++ {
		node := w.thirdNode
		if ownStorage {
			node = storage.NewNode(storage.NewMemStore()) // provider's own hardware
			w.ownNodes = append(w.ownNodes, node)
		}
		p, err := market.NewProvider(m, ids[1+i], node)
		if err != nil {
			return nil, err
		}
		if _, err := p.AddDataset(parts[i], semantic.Metadata{
			"category": semantic.String("sensor.x"),
			"samples":  semantic.Number(float64(parts[i].Len())),
		}); err != nil {
			return nil, err
		}
		w.providers = append(w.providers, p)
	}
	for i := 0; i < nProviders; i++ {
		// Own execution: the provider's identity also acts as executor on
		// its own hardware; third-party execution: a distinct identity.
		execID := ids[1+nProviders+i]
		if ownExecution {
			execID = ids[1+i]
		}
		// The executor reads from the node where provider i's data lives.
		e, err := market.NewExecutor(m, execID, w.providers[i].Node)
		if err != nil {
			return nil, err
		}
		w.executors = append(w.executors, e)
	}

	params := market.TrainerParams{Dim: 6, Epochs: 2, Lambda: 1e-3}
	w.spec = &market.Spec{
		Predicate:      `category isa "sensor"`,
		MinProviders:   nProviders,
		MinItems:       nProviders,
		ExpiryHeight:   m.Height() + 10_000,
		ExecutorFeeBps: 1_000,
		Measurement:    market.TrainerMeasurement(params.Encode()),
		QAPub:          m.QA.PublicKey(),
		Params:         params.Encode(),
	}
	return w, nil
}

// run drives the lifecycle with provider i assigned to executor i.
func (w *e13World) run(budget uint64) (crypto.Digest, error) {
	addr, _, err := market.RunLifecycle(w.consumer, w.spec, budget, w.providers, w.executors)
	if err != nil {
		return crypto.ZeroDigest, err
	}
	hash, _, err := w.m.WorkloadResultOf(addr)
	return hash, err
}

// E13Configs runs the same workload in all four Fig. 3 hardware
// configurations and verifies identical results with different
// trust/transfer profiles.
func E13Configs(quick bool) Table {
	t := Table{
		ID:         "E13",
		Title:      "Fig. 3 hardware configurations",
		PaperClaim: "§II-F/Fig. 3: providers \"can outsource data storage and/or execution to third parties, or can choose to retain control of the entire stack\" with identical platform behaviour",
		Columns:    []string{"storage", "execution", "state", "result-hash", "third-party-blobs", "self-roles"},
	}
	type cfg struct {
		name          string
		ownSt, ownExe bool
	}
	cfgs := []cfg{
		{"third-party / third-party", false, false},
		{"own / third-party", true, false},
		{"third-party / own", false, true},
		{"own / own", true, true},
	}
	var hashes []crypto.Digest
	for _, c := range cfgs {
		w, err := newE13World(13, c.ownSt, c.ownExe)
		if err != nil {
			t.AddRow(c.name, "", "ERROR", err.Error(), "", "")
			continue
		}
		hash, err := w.run(10_000)
		if err != nil {
			t.AddRow(c.name, "", "ERROR", err.Error(), "", "")
			continue
		}
		hashes = append(hashes, hash)
		thirdBlobs := len(w.thirdNode.Refs())
		selfRoles := "none"
		switch {
		case c.ownSt && c.ownExe:
			selfRoles = "storage+executor"
		case c.ownSt:
			selfRoles = "storage"
		case c.ownExe:
			selfRoles = "executor"
		}
		st := "-"
		if list, err := w.m.Workloads(); err == nil && len(list) > 0 {
			if s, err := w.m.WorkloadStateOf(list[0]); err == nil {
				st = s.String()
			}
		}
		parts := [2]string{"third-party", "own"}
		t.AddRow(parts[b2i(c.ownSt)], parts[b2i(c.ownExe)], st, hash.Short(), thirdBlobs, selfRoles)
	}
	same := true
	for _, h := range hashes {
		if h != hashes[0] {
			same = false
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("result hashes identical across configurations: %v", same),
		"third-party-blobs: ciphertexts a third party ever holds (0 when storage is self-hosted)")
	return t
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// E14Tamper injects the §II-E attacks and records the governance layer's
// response to each.
func E14Tamper(quick bool) Table {
	t := Table{
		ID:         "E14",
		Title:      "Tamper detection by the governance layer",
		PaperClaim: "§II-E: executors have \"no way to tamper with the results without being detected\"; all and only willing providers' data is used",
		Columns:    []string{"attack", "governance response", "detected"},
	}

	// Attack 1: executor runs different code than the consumer pinned.
	{
		w, err := newE13World(141, false, false)
		if err == nil {
			addr, _ := w.consumer.SubmitWorkload(w.spec, 10_000)
			refs, _ := w.providers[0].EligibleData(w.spec)
			auths, _ := w.providers[0].Authorize(addr, w.executors[0].ID.Address(), refs, w.spec.ExpiryHeight)
			wrong := market.TrainerParams{Dim: 6, Epochs: 77, Lambda: 1e-3}
			prog := market.NewTrainerProgram(wrong.Encode()).Program()
			enclave, _ := w.executors[0].Platform.Launch(prog)
			wid := market.WorkloadIDFor(addr)
			quote := enclave.Quote(market.RegistrationReport(wid, w.executors[0].ID.Address()))
			quoteRaw, _ := json.Marshal(quote)
			certsRaw, _ := json.Marshal([]identity.ParticipationCert{auths[0].Cert})
			args := contract.NewEncoder().Blob(quoteRaw).Blob(certsRaw).Bytes()
			rcpt, _ := w.m.SendAndSeal(w.executors[0].ID, addr, 0, contract.CallData("registerExecution", args))
			detected := rcpt != nil && !rcpt.Succeeded()
			t.AddRow("wrong enclave code", "registration reverted (measurement mismatch)", detected)
		}
	}

	// Attack 2: forged participation certificate.
	{
		w, err := newE13World(142, false, false)
		if err == nil {
			addr, _ := w.consumer.SubmitWorkload(w.spec, 10_000)
			wid := market.WorkloadIDFor(addr)
			exec := w.executors[0]
			mallory := identity.New("mallory", crypto.NewDRBGFromUint64(999, "m"))
			forged := identity.IssueCert(mallory, wid, crypto.HashString("stolen"),
				exec.ID.Address(), w.spec.ExpiryHeight)
			forged.Provider = w.providers[0].ID.Address()
			spec, _ := w.m.WorkloadSpecOf(addr)
			prog := market.NewTrainerProgram(spec.Params).Program()
			enclave, _ := exec.Platform.Launch(prog)
			quote := enclave.Quote(market.RegistrationReport(wid, exec.ID.Address()))
			quoteRaw, _ := json.Marshal(quote)
			certsRaw, _ := json.Marshal([]identity.ParticipationCert{forged})
			args := contract.NewEncoder().Blob(quoteRaw).Blob(certsRaw).Bytes()
			rcpt, _ := w.m.SendAndSeal(exec.ID, addr, 0, contract.CallData("registerExecution", args))
			detected := rcpt != nil && !rcpt.Succeeded()
			t.AddRow("forged participation certificate", "registration reverted (bad signature)", detected)
		}
	}

	// Attack 3: an executor fetches data it was never granted.
	{
		w, err := newE13World(143, false, false)
		if err == nil {
			addr, _ := w.consumer.SubmitWorkload(w.spec, 10_000)
			refs, _ := w.providers[0].EligibleData(w.spec)
			auths, _ := w.providers[0].Authorize(addr, w.executors[0].ID.Address(), refs, w.spec.ExpiryHeight)
			// Executor 1 replays executor 0's grant.
			wid := market.WorkloadIDFor(addr)
			_, err := w.thirdNode.Release(&auths[0].Grant, w.executors[1].ID.Address(), wid, w.m.Height())
			t.AddRow("grant replay by another executor", "storage node refused release (grantee mismatch)", err != nil)
		}
	}

	// Attack 4: divergent (tampered) result submission.
	{
		w, err := newE13World(144, false, false)
		if err == nil {
			w.executors[1].TamperResult = true
			_, runErr := w.run(10_000)
			detected := false
			if list, err := w.m.Workloads(); err == nil && len(list) > 0 {
				if st, err := w.m.WorkloadStateOf(list[0]); err == nil && st == market.StateDisputed {
					detected = true
				}
			}
			_ = runErr
			refunded := w.m.Chain.State().Balance(w.consumer.ID.Address()) == 1_000_000
			t.AddRow("tampered result (1 of 2 executors)",
				fmt.Sprintf("workload disputed, consumer refunded=%v", refunded), detected)
		}
	}
	t.Notes = append(t.Notes, "every attack must show detected=true")
	return t
}
