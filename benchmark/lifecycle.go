package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"pds2/internal/chainstore"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/market"
	"pds2/internal/ml"
	"pds2/internal/policy"
	"pds2/internal/semantic"
	"pds2/internal/storage"
	"pds2/internal/vm"
)

// minAccuracy is the test accuracy every lifecycle's model must reach.
const minAccuracy = 0.9

// restartRepeats is how many times phase (d) times the restart.
const restartRepeats = 3

// lifecycleEnv is lifecycle_audit after set-up: a durable market with a
// consumer, providers holding two groups of datasets (group 0 free,
// group 1 policy-bound — half declarative, half programmed) and
// executors, plus the pre-signed transfer blocks of phases (b) and (d).
type lifecycleEnv struct {
	dir       string
	cfg       market.Config
	store     *chainstore.Store
	m         *market.Market
	consumer  *market.Consumer
	providers []*market.Provider
	executors []*market.Executor
	test      *ml.Dataset
	params    market.TrainerParams
	supply    uint64
	blocks    [][]*ledger.Transaction // transfer blocks, phase (b) then (d)

	declData, vmData crypto.Digest
}

func setupLifecycle(sc lifecycleScale, seed uint64, dir string) (*lifecycleEnv, error) {
	rng := crypto.NewDRBGFromUint64(seed, "bench/lifecycle")
	actors := deriveAccounts(seed, "lifecycle/actor", 1+sc.providers+sc.executors)
	senders := deriveAccounts(seed, "lifecycle/sender", sc.blockTxs)
	alloc := make(map[identity.Address]uint64, sc.accounts)
	var funded []identity.Address
	for _, group := range [][]*account{actors, senders} {
		for _, a := range group {
			funded = append(funded, a.id.Address())
		}
	}
	for i := len(funded); i < sc.accounts; i++ {
		funded = append(funded, fillerAddress(seed, i))
	}
	for _, a := range funded {
		alloc[a] = genesisFund
	}

	env := &lifecycleEnv{dir: dir, cfg: marketConfig(seed, alloc)}
	var err error
	if env.store, err = chainstore.Open(dir, nil); err != nil {
		return nil, err
	}
	fail := func(err error) (*lifecycleEnv, error) {
		env.store.Close()
		return nil, err
	}
	if env.m, err = market.Open(env.cfg, env.store); err != nil {
		return fail(err)
	}
	env.supply = env.m.Chain.State().TotalBalance()
	if env.consumer, err = market.NewConsumer(env.m, actors[0].id); err != nil {
		return fail(err)
	}

	// Two dataset groups per provider from one generating process, and a
	// held-out test set the accuracy check scores every model on.
	groups := 2 * sc.providers
	data, _ := ml.GenerateClassification(ml.SyntheticConfig{
		N: sc.samplesEach * groups * 5 / 4, Dim: sc.dim, LabelNoise: 0.02,
	}, rng.Fork("data"))
	train, test := data.TrainTestSplit(0.2, rng.Fork("split"))
	parts := train.PartitionIID(groups, rng.Fork("parts"))
	env.test = test
	node := storage.NewNode(storage.NewMemStore())
	permissive := &policy.Policy{AllowedClasses: []string{market.DefaultComputationClass}, MinAggregation: 1}
	for i := 0; i < sc.providers; i++ {
		p, err := market.NewProvider(env.m, actors[1+i].id, node)
		if err != nil {
			return fail(err)
		}
		for g := 0; g < 2; g++ {
			part := parts[g*sc.providers+i]
			ref, err := p.AddDataset(part, semantic.Metadata{
				"category": semantic.String("sensor.generic"),
				"samples":  semantic.Number(float64(part.Len())),
				"batch":    semantic.Number(float64(g)),
			})
			if err != nil {
				return fail(err)
			}
			if g == 0 {
				continue
			}
			if i%2 == 0 {
				env.declData = ref.ID
				err = p.SetPolicy(ref.ID, permissive)
			} else {
				env.vmData = ref.ID
				err = p.DeployPolicy(ref.ID, vm.BuiltinPolicySource(permissive))
			}
			if err != nil {
				return fail(err)
			}
		}
		env.providers = append(env.providers, p)
	}
	for i := 0; i < sc.executors; i++ {
		e, err := market.NewExecutor(env.m, actors[1+sc.providers+i].id, node)
		if err != nil {
			return fail(err)
		}
		env.executors = append(env.executors, e)
	}
	env.params = market.TrainerParams{Dim: uint64(sc.dim), Epochs: uint64(sc.epochs), Lambda: 1e-3}

	// Every block of phases (b) and (d): one transfer per sender.
	pick := rand.New(rand.NewSource(int64(seed)))
	for b := 0; b < sc.transferBlocks+sc.tailBlocks; b++ {
		txs := make([]*ledger.Transaction, len(senders))
		for i, a := range senders {
			to := funded[pick.Intn(len(funded))]
			if to == a.id.Address() {
				to = funded[0]
			}
			txs[i] = a.sign(to, amount(pick), ledger.TxBaseGas, nil)
		}
		env.blocks = append(env.blocks, txs)
	}
	return env, nil
}

// lifecycle runs one complete Fig. 2 workload — submit, match, execute,
// settle — and returns its duration and the blocks it sealed.
func (env *lifecycleEnv) lifecycle(i int, rec *recorder) (time.Duration, uint64, error) {
	m := env.m
	spec := &market.Spec{
		Predicate:      fmt.Sprintf(`category isa "sensor" and batch == %d`, i%2),
		MinProviders:   uint64(len(env.providers)),
		MinItems:       uint64(len(env.providers)),
		ExpiryHeight:   m.Height() + 100_000,
		ExecutorFeeBps: 1_000,
		Measurement:    market.TrainerMeasurement(env.params.Encode()),
		QAPub:          m.QA.PublicKey(),
		Params:         env.params.Encode(),
	}
	h0 := m.Height()
	start := time.Now()
	root := rec.begin(spanLifecycle, 0, int64(i))
	stage := rec.begin(spanStageSubmit, root, int64(i))
	workload, err := env.consumer.SubmitWorkload(spec, 10_000)
	rec.end(stage)
	if err != nil {
		return 0, 0, err
	}
	stage = rec.begin(spanStageMatch, root, int64(i))
	for j, p := range env.providers {
		refs, err := p.EligibleData(spec)
		if err != nil {
			return 0, 0, err
		}
		exec := env.executors[j%len(env.executors)]
		auths, err := p.Authorize(workload, exec.ID.Address(), refs, spec.ExpiryHeight)
		if err != nil {
			return 0, 0, err
		}
		exec.Accept(workload, auths)
	}
	for _, e := range env.executors {
		if err := e.Register(workload); err != nil {
			return 0, 0, err
		}
	}
	if err := env.consumer.Start(workload); err != nil {
		return 0, 0, err
	}
	rec.end(stage)
	stage = rec.begin(spanStageExecute, root, int64(i))
	payload, err := market.RunWorkloadExecution(workload, env.executors)
	rec.end(stage)
	if err != nil {
		return 0, 0, err
	}
	stage = rec.begin(spanStageSettle, root, int64(i))
	err = env.consumer.Finalize(workload)
	rec.end(stage)
	rec.end(root)
	if err != nil {
		return 0, 0, err
	}
	took := time.Since(start)

	state, err := m.WorkloadStateOf(workload)
	if err != nil {
		return 0, 0, err
	}
	if state != market.StateComplete {
		return 0, 0, fmt.Errorf("lifecycle %d ended %v, not complete", i, state)
	}
	model, _, err := market.DecodeResultModel(payload, env.params.Lambda)
	if err != nil {
		return 0, 0, err
	}
	if acc := ml.Accuracy(model, env.test); acc < minAccuracy {
		return 0, 0, fmt.Errorf("lifecycle %d: model accuracy %.3f below %.2f", i, acc, minAccuracy)
	}
	return took, m.Height() - h0, nil
}

// sealTransfers admits one pre-signed block of transfers and seals it.
func sealTransfers(m *market.Market, txs []*ledger.Transaction) error {
	for _, tx := range txs {
		if err := m.Pool.Add(tx); err != nil {
			return err
		}
	}
	b, err := m.SealBlock()
	if err != nil {
		return err
	}
	if len(b.Txs) != len(txs) {
		return fmt.Errorf("block %d sealed %d of %d transfers", b.Header.Height, len(b.Txs), len(txs))
	}
	for _, tx := range txs {
		if r, ok := m.Chain.Receipt(tx.Hash()); !ok || !r.Succeeded() {
			return fmt.Errorf("transfer %s did not succeed", tx.Hash().Short())
		}
	}
	return nil
}

// runLifecycle runs lifecycle_audit: (a) complete marketplace
// lifecycles, (b) blocks of transfers, (c) an auditor's from-genesis
// re-validation of the closed store, (d) a snapshot, a tail of blocks
// and the operator's restart from snapshot + tail. No HTTP, no timers:
// the same seed does the same work.
func runLifecycle(cfg runConfig) (*result, error) {
	sc := scaledLifecycle(int(cfg.seconds))
	if cfg.lifecycleScale != nil {
		sc = *cfg.lifecycleScale
	}
	res := newResult(wlLifecycle, cfg.seed, cfg.seconds, cfg.traced)
	m := res.Metrics
	var rec *recorder
	var finishWatch func(*result)
	if cfg.traced {
		rec = newRecorder(1 << 16)
	}

	env, setupS, err := repeatSetup(cfg,
		func(dir string) (*lifecycleEnv, error) { return setupLifecycle(sc, cfg.seed, dir) },
		func(e *lifecycleEnv) error { return e.store.Close() })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.dir)
	m["setup_s"] = setupS
	if cfg.traced {
		finishWatch = startRuntimeWatch()
		env.m.Chain.SetOnCommit(tracedAppend(rec, env.store))
	}
	cpu0 := cpuSeconds()

	// (a) Lifecycles. Durations are kept per dataset group: lifecycles on
	// the policy-bound group (odd i) seal twice the blocks of the others
	// and take twice as long, so a median over both would sit on the edge
	// between the two modes.
	var took [2]samples
	var blocksPerMS samples
	var sealed uint64
	for i := 0; i < sc.lifecycles; i++ {
		res.Attempted++
		d, blocks, err := env.lifecycle(i, rec)
		if err != nil {
			res.Failed++
			res.violate("lifecycle %d: %v", i, err)
			continue
		}
		took[i%2] = append(took[i%2], ms(d))
		blocksPerMS = append(blocksPerMS, float64(blocks)/ms(d))
		sealed += blocks
	}
	// (b) Transfer blocks.
	for _, txs := range env.blocks[:sc.transferBlocks] {
		res.Attempted += len(txs)
		if err := sealTransfers(env.m, txs); err != nil {
			res.Failed += len(txs)
			res.violate("transfer block: %v", err)
		}
	}
	for _, v := range market.VerifyPolicySettlements(env.m.Chain.Events("")) {
		res.violate("policy settlement: %s", v)
	}
	if got := env.m.Chain.State().TotalBalance(); got != env.supply {
		res.violate("native supply %d, genesis %d", got, env.supply)
	}
	head := env.m.Chain.Head()
	chainTxs := countTxs(env.m.Chain)
	stats := env.store.Stats()
	if err := env.store.Close(); err != nil {
		return nil, fmt.Errorf("close store: %w", err)
	}

	// (c) The auditor's path: open the store read-only in spirit and
	// re-validate every block from genesis.
	start := time.Now()
	store, err := chainstore.Open(env.dir, nil)
	if err != nil {
		return nil, fmt.Errorf("audit open: %w", err)
	}
	rt, err := market.NewRuntime()
	if err != nil {
		return nil, err
	}
	verified, err := store.VerifyChain(rt)
	catchup := time.Since(start)
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("VerifyChain: %w", err)
	}
	if verified.Head().Hash() != head.Hash() {
		res.violate("VerifyChain head %d differs from the source head %d", verified.Height(), head.Header.Height)
	}

	// (d) Only now a snapshot at the head, then a tail of blocks on the
	// reopened market, then the timed restart from snapshot + tail.
	snap := verified.ExportSnapshot()
	if err := store.WriteSnapshot(snap); err != nil {
		store.Close()
		return nil, fmt.Errorf("write snapshot: %w", err)
	}
	if err := store.Close(); err != nil {
		return nil, err
	}
	store, tailM, err := reopen(env)
	if err != nil {
		return nil, fmt.Errorf("reopen for tail: %w", err)
	}
	var tail []*ledger.Block
	for _, txs := range env.blocks[sc.transferBlocks:] {
		res.Attempted += len(txs)
		if err := sealTransfers(tailM, txs); err != nil {
			res.Failed += len(txs)
			res.violate("tail block: %v", err)
			continue
		}
		tail = append(tail, tailM.Chain.Head())
	}
	tailHead := tailM.Chain.Head()
	if err := store.Close(); err != nil {
		return nil, err
	}
	// The restart is short, so it is timed restartRepeats times (the
	// store is only read) and the median reported.
	var restarts samples
	var restarted *market.Market
	for k := 0; k < restartRepeats; k++ {
		start = time.Now()
		store, restarted, err = reopen(env)
		restarts = append(restarts, time.Since(start).Seconds())
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		if err := store.Close(); err != nil {
			return nil, err
		}
	}
	cpu := cpuSeconds() - cpu0
	if restarted.Chain.Head().Hash() != tailHead.Hash() {
		res.violate("restarted head %d differs from the sealed head %d", restarted.Height(), tailHead.Header.Height)
	}
	if root := restarted.Chain.State().Root(); root != tailHead.Header.StateRoot {
		res.violate("restarted state root %s, sealed %s", root.Short(), tailHead.Header.StateRoot.Short())
	}
	if got := restarted.Chain.State().TotalBalance(); got != env.supply {
		res.violate("native supply after restart %d, genesis %d", got, env.supply)
	}

	completed := len(took[0]) + len(took[1])
	m["lifecycle_ms_p50"] = (median(took[0]) + median(took[1])) / 2
	m["catchup_tx_per_s"] = float64(chainTxs) / catchup.Seconds()
	m["restart_s"] = median(restarts)
	m["latency_p50_ms"] = m["lifecycle_ms_p50"]
	m["latency_tail_ms"] = ms(catchup)
	m["log_bytes_per_tx"] = float64(stats.LogBytes) / float64(chainTxs)
	m["chainstore.log_bytes_per_tx"] = m["log_bytes_per_tx"]
	m["chainstore.appends_per_ktx"] = float64(stats.Frames) / (float64(chainTxs) / 1000)
	m["market.blocks"] = float64(stats.Frames)
	m["market.block_txs_mean"] = float64(chainTxs) / float64(stats.Frames)
	if completed > 0 {
		m["market.lifecycle.blocks_mean"] = float64(sealed) / float64(completed)
	}
	m["runtime.cpu_s_per_ktx"] = cpu / (float64(chainTxs+len(tail)*sc.blockTxs) / 1000)
	res.Info["latency_samples"] = completed
	res.Info["latency_tail_percentile"] = "catch-up"
	res.Info["chain_txs"] = chainTxs
	res.Info["chain_blocks"] = stats.Frames

	if cfg.traced {
		finishWatch(res)
		res.spans = rec.spans()
		for name, metric := range map[spanName]string{
			spanStageSubmit: "market.stage.submit_ms_p50", spanStageMatch: "market.stage.match_ms_p50",
			spanStageExecute: "market.stage.execute_ms_p50", spanStageSettle: "market.stage.settle_ms_p50",
		} {
			m[metric] = percentile(durations(res.spans, name).sorted(), 50)
		}
		appendD := durations(res.spans, spanAppend).sorted()
		m["chainstore.append_ms_p50"] = percentile(appendD, 50)
		m["chainstore.append_ms_p99"] = p99(appendD)
		m["trace.spans"] = float64(len(res.spans))
		m["trace.spans_dropped"] = float64(rec.dropped.Load())
		in := &layerInput{snapshot: snap, blocks: tail, seed: cfg.seed, live: restarted,
			declData: env.declData, vmData: env.vmData}
		if err := runLayerPass(res, in, filepath.Join(cfg.scratch, "layers")); err != nil {
			return nil, fmt.Errorf("layer pass: %w", err)
		}
		// Share of a lifecycle spent sealing: every block it seals pays
		// one state root and one append. Lifecycles on the policy-bound
		// datasets seal twice the blocks of the others, so the share is
		// taken per lifecycle (blocks over duration) and the median kept.
		m["market.lifecycle.seal_share"] = percentile(blocksPerMS.sorted(), 50) *
			(m["ledger.state.root_ms_per_block"] + m["chainstore.append_ms_p50"])
	}
	m["peak_rss_mib"] = peakRSSMiB()
	res.Correct = len(res.Violations) == 0 && res.Failed == 0
	return res, nil
}

// reopen opens the workload's store and market again, as a restarted
// node does.
func reopen(env *lifecycleEnv) (*chainstore.Store, *market.Market, error) {
	store, err := chainstore.Open(env.dir, nil)
	if err != nil {
		return nil, nil, err
	}
	m, err := market.Open(env.cfg, store)
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	return store, m, nil
}
