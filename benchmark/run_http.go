package main

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pds2/internal/chainstore"
	"pds2/internal/crypto"
	"pds2/internal/ledger"
	"pds2/internal/market"
)

// runConfig is one run's arguments.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	senders  int
	scratch  string // directory for stores; removed when the run ends
	spansOut string // optional: write the traced run's spans here

	// setupRepeats overrides how many times set-up runs (0: the default).
	setupRepeats int

	// Test hooks: a toy-scale override of the frozen sizes.
	httpScale      *httpScale
	lifecycleScale *lifecycleScale
}

// fullReplayMax is the largest state for which the reopen check replays
// the whole log through market.Open; above it the check reads the log
// back and verifies linkage and the head instead (a full replay costs
// one state root per block, which at 100k accounts would take longer
// than the run).
const fullReplayMax = 10_000

// repeatSetup sets the workload up several times, each in a fresh
// directory, discarding every instance but the last, and returns that
// one with the median set-up time. Between instances the heap is handed
// back to the OS, so the resident-set high-water mark is that of one
// node and not of however much of the discarded ones the collector had
// not got to yet.
func repeatSetup[E any](cfg runConfig, setup func(dir string) (E, error), discard func(E) error) (env E, medianS float64, err error) {
	repeats := setupRepeats
	if cfg.setupRepeats > 0 {
		repeats = cfg.setupRepeats
	}
	var took samples
	for k := 0; k < repeats; k++ {
		dir := filepath.Join(cfg.scratch, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, k))
		if err := os.RemoveAll(dir); err != nil {
			return env, 0, err
		}
		start := time.Now()
		if env, err = setup(dir); err != nil {
			return env, 0, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(start).Seconds())
		if k == repeats-1 {
			break
		}
		if err := discard(env); err != nil {
			return env, 0, fmt.Errorf("discard set-up %d: %w", k, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return env, 0, err
		}
		var zero E
		env = zero
		debug.FreeOSMemory()
	}
	return env, median(took), nil
}

// phaseWindow is when one phase ran.
type phaseWindow struct{ start, end time.Time }

// runHTTP runs one HTTP workload: set up (several times, keeping the
// last), warm up, the open-loop steady phase, the closed-loop sat
// phase, drain, then the correctness checks and the metrics.
func runHTTP(cfg runConfig) (*result, error) {
	scale := frozenHTTP[cfg.workload]
	if cfg.httpScale != nil {
		scale = *cfg.httpScale
	}
	res := newResult(cfg.workload, cfg.seed, cfg.seconds, cfg.traced)
	var rec *recorder
	if cfg.traced {
		rec = newRecorder(1 << 20)
	}
	stopTelemetry := enableNodeTelemetry()
	defer stopTelemetry()

	env, setupS, err := repeatSetup(cfg,
		func(dir string) (*httpEnv, error) {
			return setupHTTP(cfg.workload, scale, cfg.seed, cfg.seconds, cfg.senders, dir, rec)
		},
		func(e *httpEnv) error { return e.n.close() })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.n.dir)
	res.Metrics["setup_s"] = setupS
	digest := env.plan.digest()
	res.Info["op_stream_digest"] = hex.EncodeToString(digest[:])

	n, pl := env.n, env.plan
	t0 := time.Now()
	fd := &feed{}
	fd.seed(env.seedHashes)
	logBytes0, txs0 := n.store.Stats().LogBytes, countTxs(n.m.Chain)

	// The sealer's block observer stamps every committed transaction.
	var committedN atomic.Int64
	seal := startSealer(n, rec, func(b sealedBlock, hashes []crypto.Digest) {
		for _, h := range hashes {
			if t := pl.byHash[h]; t != nil {
				committedN.Add(1)
				t.sealStartNS = int64(b.sealStart.Sub(t0))
				t.sealEndNS = int64(b.sealEnd.Sub(t0))
				t.visibleNS = int64(b.visible.Sub(t0))
			}
		}
		fd.add(hashes)
	})
	senders := make([]*sender, cfg.senders)
	for i := range senders {
		senders[i] = newSender(n.url, rec, t0, &seal.height, fd)
	}

	var finishWatch func(*result)
	if cfg.traced {
		finishWatch = startRuntimeWatch()
	}
	var stats [numPhases]phaseStats
	var windows [numPhases]phaseWindow
	var cpu0 float64
	for ph := 0; ph < numPhases; ph++ {
		if ph == phaseSteady {
			cpu0 = cpuSeconds()
		}
		start := time.Now()
		deadline := start.Add(env.dur[ph])
		out := make([]*phaseStats, len(senders))
		var wg sync.WaitGroup
		for i, s := range senders {
			wg.Add(1)
			go func(i int, s *sender) {
				defer wg.Done()
				out[i] = s.run(ph, start, pl.timed[ph][i], pl.filler[ph][i], deadline)
			}(i, s)
		}
		wg.Wait()
		windows[ph] = phaseWindow{start, time.Now()}
		for _, o := range out {
			stats[ph].merge(o)
		}
		if ph == phaseSteady {
			// The high-water mark up to here covers the set-ups, the
			// warm-up and the steady phase — a fixed amount of work. The
			// closed-loop phase adds memory in proportion to however many
			// ops the host's speed let it finish, so it is left out.
			res.Metrics["peak_rss_mib"] = peakRSSMiB()
		}
	}

	// Drain: the sealer keeps its cadence until every acknowledged
	// transaction has committed.
	acked := 0
	for ph := range stats {
		acked += len(stats[ph].admitMS)
	}
	drainErr := waitFor(20*time.Second, func() bool {
		return committedN.Load() >= int64(acked) && n.m.Pool.Len() == 0
	})
	drained := time.Now()
	cpu := cpuSeconds() - cpu0
	seal.halt()
	if err := n.stopServing(); err != nil {
		return nil, fmt.Errorf("stop node: %w", err)
	}
	if finishWatch != nil {
		finishWatch(res)
	}

	// Accounting: the measured phases count.
	res.Attempted = stats[phaseSteady].attempted + stats[phaseSat].attempted
	res.Failed = stats[phaseSteady].failed + stats[phaseSat].failed
	res.check("drain", drainErr)
	for ph := phaseSteady; ph <= phaseSat; ph++ {
		res.check("first failed op", stats[ph].firstErr)
	}
	if got, want := stats[phaseSteady].attempted+len(stats[phaseSat].lateMS), pl.scheduled; got != want {
		res.violate("open-loop ops shed: attempted %d of %d scheduled", got, want)
	}
	for _, err := range seal.errs {
		res.check("sealer", err)
	}
	res.Failed += checkHTTPState(res, env)
	res.depths = seal.depths

	head := n.m.Chain.Head()
	liveRoot := n.m.Chain.State().Root()
	stored := n.store.Stats()
	committed := countTxs(n.m.Chain) - txs0

	// Layer pass input must be taken before the store closes.
	var pass *layerInput
	if cfg.traced {
		pass = newLayerInput(n.m, env.h0)
		pass.declData, pass.vmData = env.declSample, env.vmSample
	}
	if err := n.store.Close(); err != nil {
		return nil, fmt.Errorf("close store: %w", err)
	}
	res.check("reopen", checkReopen(n, scale.accounts <= fullReplayMax, head, liveRoot))

	httpMetrics(res, env, stats, windows, seal, t0, drained, committed, float64(stored.LogBytes-logBytes0), cpu)
	if cfg.traced {
		res.spans = rec.spans()
		spanMetrics(res, rec, windows[phaseSteady].start, drained)
		res.Metrics["api.requests"] = float64(n.apiN.requests.Load())
		res.Metrics["api.failed"] = float64(n.apiN.failed.Load())
		res.Metrics["api.shed_429"] = float64(n.apiN.shed.Load())
		if err := runLayerPass(res, pass, filepath.Join(cfg.scratch, "layers")); err != nil {
			return nil, fmt.Errorf("layer pass: %w", err)
		}
	}
	res.Correct = len(res.Violations) == 0 && res.Failed == 0
	return res, nil
}

func waitFor(limit time.Duration, cond func() bool) error {
	end := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(end) {
			return fmt.Errorf("condition not met within %s", limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

func countTxs(c *ledger.Chain) int {
	total := 0
	for h := c.Base() + 1; h <= c.Height(); h++ {
		if b, err := c.BlockAt(h); err == nil {
			total += len(b.Txs)
		}
	}
	return total
}

// checkHTTPState runs the in-process checks on the stopped node: every
// acknowledged transaction has a receipt with the scripted status (all
// generated transactions are scripted to succeed), the native supply is
// the genesis supply, and no settled workload violates a dataset
// policy. It returns how many ops these checks found failed.
func checkHTTPState(res *result, env *httpEnv) int {
	m := env.n.m
	failed := 0
	for _, t := range env.plan.txs {
		if !t.acked || t.phase == phaseWarm {
			continue
		}
		rcpt, ok := m.Chain.Receipt(t.hash)
		switch {
		case !ok:
			failed++
			res.violate("acknowledged transaction %s has no receipt", t.hash.Short())
		case !rcpt.Succeeded():
			failed++
			res.violate("transaction %s reverted: %s", t.hash.Short(), rcpt.Err)
		}
		if failed > 20 {
			res.violate("… further receipt violations suppressed")
			break
		}
	}
	if got := m.Chain.State().TotalBalance(); got != env.supply {
		res.violate("native supply %d, genesis %d", got, env.supply)
	}
	for _, v := range market.VerifyPolicySettlements(m.Chain.Events("")) {
		res.violate("policy settlement: %s", v)
	}
	return failed
}

// checkReopen closes the loop on durability: the store is reopened and
// must hold the live node's head. With full set, the market is rebuilt
// from the log (every block re-validated) and its state root compared;
// otherwise the log is read back and checked for linkage up to the head,
// whose sealed state root must be the live one.
func checkReopen(n *node, full bool, head *ledger.Block, liveRoot crypto.Digest) error {
	if head.Header.StateRoot != liveRoot {
		return fmt.Errorf("live state root %s differs from the head's sealed root %s",
			liveRoot.Short(), head.Header.StateRoot.Short())
	}
	store, err := chainstore.Open(n.dir, nil)
	if err != nil {
		return err
	}
	defer store.Close()
	if store.RecoveredBytes() != 0 {
		return fmt.Errorf("reopen truncated %d bytes after a clean close", store.RecoveredBytes())
	}
	if last, _ := store.LastHeight(); last != head.Header.Height {
		return fmt.Errorf("store head %d, live head %d: acknowledged blocks lost", last, head.Header.Height)
	}
	if full {
		m, err := market.Open(n.cfg, store)
		if err != nil {
			return err
		}
		if m.Chain.Head().Hash() != head.Hash() {
			return errors.New("replayed head differs from the live head")
		}
		if root := m.Chain.State().Root(); root != liveRoot {
			return fmt.Errorf("replayed state root %s, live %s", root.Short(), liveRoot.Short())
		}
		return nil
	}
	var prev crypto.Digest
	var last *ledger.Block
	err = store.Blocks(1, func(b *ledger.Block) error {
		if last != nil && b.Header.Parent != prev {
			return fmt.Errorf("block %d does not link to its parent", b.Header.Height)
		}
		prev, last = b.Hash(), b
		return nil
	})
	if err != nil {
		return err
	}
	if last == nil || last.Hash() != head.Hash() {
		return errors.New("stored head differs from the live head")
	}
	return nil
}

// httpMetrics derives the end-to-end slots and the workload-specific
// numbers from what the senders and the sealer measured.
func httpMetrics(res *result, env *httpEnv, stats [numPhases]phaseStats, win [numPhases]phaseWindow,
	seal *sealer, t0, drained time.Time, committed int, logBytes, cpu float64) {
	m := res.Metrics
	var commit, stAdmit, stQueue, stSeal, stVisible samples
	measuredTxs, satCommitted := 0, 0
	var satLastNS int64
	for _, t := range env.plan.txs {
		if !t.committed() || t.phase == phaseWarm {
			continue
		}
		measuredTxs++
		if t.phase != phaseSteady {
			satCommitted++
			satLastNS = max(satLastNS, t.visibleNS)
			continue
		}
		commit = append(commit, float64(t.visibleNS-t.dueNS)/1e6)
		stAdmit = append(stAdmit, float64(t.ackNS-t.dueNS)/1e6)
		stQueue = append(stQueue, float64(t.sealStartNS-t.ackNS)/1e6)
		stSeal = append(stSeal, float64(t.sealEndNS-t.sealStartNS)/1e6)
		stVisible = append(stVisible, float64(t.visibleNS-t.sealEndNS)/1e6)
	}
	commit = commit.sorted()
	admit := stats[phaseSteady].admitMS.sorted()
	reads := stats[phaseSteady].readMS.sorted()

	m["commit_p50_ms"] = percentile(commit, 50)
	m["commit_p99_ms"] = p99(commit)
	m["admit_p99_ms"] = p99(admit)
	m["read_p50_ms"] = percentile(reads, 50)
	m["read_p99_ms"] = p99(reads)
	m["stage.admit_ms_mean"] = mean(stAdmit)
	m["stage.queue_ms_mean"] = mean(stQueue)
	m["stage.seal_ms_mean"] = mean(stSeal)
	m["stage.visible_ms_mean"] = mean(stVisible)
	if c := mean(commit); c > 0 {
		m["stage.sum_over_commit"] = (mean(stAdmit) + mean(stQueue) + mean(stSeal) + mean(stVisible)) / c
	}
	late := append(append(samples(nil), stats[phaseSteady].lateMS...), stats[phaseSat].lateMS...)
	m["gen.late_ms_p99"] = p99(late.sorted())

	// Saturation throughput. Commits are counted over whole block
	// intervals inside the sat phase — from the first sat block's commit
	// to the last one's — so neither the phase edges nor the drain's
	// partial block move the rate.
	satEnd := win[phaseSat].end
	var first, last *sealedBlock
	satTxs := 0
	for i := range seal.blocks {
		b := &seal.blocks[i]
		if b.sealStart.Before(win[phaseSat].start) || b.sealStart.After(satEnd) {
			continue
		}
		if first == nil {
			first = b
			continue
		}
		satTxs += b.txs
		last = b
	}
	if last != nil {
		m["commit_tx_per_s"] = float64(satTxs) / last.sealEnd.Sub(first.sealEnd).Seconds()
	} else if satCommitted > 0 {
		// Fewer than two block intervals (the node exhausted the phase's
		// supply of ops at once): the phase's transactions over the time
		// until the last one committed.
		m["commit_tx_per_s"] = float64(satCommitted) / (time.Duration(satLastNS) - win[phaseSat].start.Sub(t0)).Seconds()
	}
	if d := satEnd.Sub(win[phaseSat].start).Seconds(); d > 0 {
		m["read_per_s"] = float64(stats[phaseSat].reads) / d
	}

	blocks, blockTxs := 0, 0
	for _, b := range seal.blocks {
		if !b.sealStart.Before(win[phaseSteady].start) {
			blocks++
			blockTxs += b.txs
		}
	}
	m["market.blocks"] = float64(blocks)
	if blocks > 0 {
		m["market.block_txs_mean"] = float64(blockTxs) / float64(blocks)
	}
	m["market.empty_ticks"] = float64(seal.emptyTicks)
	for _, d := range seal.depths {
		m["ledger.mempool.depth_max"] = max(m["ledger.mempool.depth_max"], float64(d))
	}
	if committed > 0 {
		m["log_bytes_per_tx"] = logBytes / float64(committed)
		m["chainstore.log_bytes_per_tx"] = m["log_bytes_per_tx"]
		m["chainstore.appends_per_ktx"] = float64(len(seal.blocks)) / (float64(committed) / 1000)
	}
	ops := measuredTxs + len(stats[phaseSteady].readMS) + len(stats[phaseSat].readMS)
	if ops > 0 {
		m["runtime.cpu_s_per_ktx"] = cpu / (float64(ops) / 1000)
	}

	// The end-to-end slots carry the commit latency of the workload's
	// writes — for read_heavy its background writes. Read latency is not
	// gated: a read waits only when it meets a seal, so every read
	// percentile is a multiple of the seal time, which follows the host's
	// memory speed (README.md "Demoted metrics").
	m["latency_p50_ms"] = percentile(commit, 50)
	pct, v := tail(commit, gatedTail)
	m["latency_tail_ms"] = v
	m["read_p90_ms"] = percentile(reads, 90)
	res.Info["latency_samples"] = len(commit)
	res.Info["latency_tail_percentile"] = pct
	res.Info["latency_tail_ladder_ms"] = map[string]float64{
		"p90": percentile(commit, 90), "p95": percentile(commit, 95), "p99": percentile(commit, 99),
	}
	res.Info["read_samples"] = len(reads)
	res.Info["committed_txs"] = committed
	res.Info["sat_ops_exhausted"] = satExhausted(env, stats)
	res.Info["drain_s"] = drained.Sub(satEnd).Seconds()
}

// satExhausted reports whether the closed-loop phase ran out of
// generated ops before its deadline (the node outran satCap).
func satExhausted(env *httpEnv, stats [numPhases]phaseStats) bool {
	generated := 0
	for _, ops := range env.plan.filler[phaseSat] {
		generated += len(ops)
	}
	return generated > 0 && stats[phaseSat].attempted-len(stats[phaseSat].lateMS) >= generated
}

// spanMetrics derives the live-span metrics of a traced HTTP run: the
// handler-wrapper spans by route class, the client overhead, the seal
// span (the time the sealer holds the server lock) and the append span.
func spanMetrics(res *result, rec *recorder, from, to time.Time) {
	m := res.Metrics
	spans := res.spans
	lo, hi := int64(from.Sub(rec.t0)), int64(to.Sub(rec.t0))
	var window []span
	for _, s := range spans {
		if s.Start >= lo && s.Start <= hi {
			window = append(window, s)
		}
	}
	submit := durations(window, spanServerSubmit).sorted()
	read := durations(window, spanServerRead).sorted()
	status := durations(window, spanServerStatus).sorted()
	sealD := durations(window, spanServerSeal).sorted()
	appendD := durations(window, spanAppend).sorted()
	m["api.submit.server_us_p50"] = percentile(submit, 50) * 1000
	m["api.submit.server_ms_p99"] = p99(submit)
	m["api.read.server_us_p50"] = percentile(read, 50) * 1000
	m["api.read.server_ms_p99"] = p99(read)
	m["api.status.server_ms_p50"] = percentile(status, 50)
	m["api.seal.server_ms_p50"] = percentile(sealD, 50)
	m["api.seal.server_ms_p99"] = p99(sealD)
	var busy float64
	for _, d := range sealD {
		busy += d
	}
	if wall := ms(to.Sub(from)); wall > 0 {
		m["api.seal.busy_share"] = busy / wall
	}
	res.Info["seal_busy_ms"] = busy
	m["chainstore.append_ms_p50"] = percentile(appendD, 50)
	m["chainstore.append_ms_p99"] = p99(appendD)

	// Client overhead: the self time of a generator call's span once the
	// server span it caused is taken out — connection, encoding and
	// scheduling on both sides.
	self := selfTimes(window)
	byID := make(map[uint32]span, len(window))
	for _, s := range window {
		byID[s.ID] = s
	}
	var overhead samples
	for _, s := range window {
		if p, ok := byID[s.Parent]; ok && (p.Name == spanClientSubmit || p.Name == spanClientRead) {
			overhead = append(overhead, float64(self[p.ID])/1e3)
		}
	}
	m["api.client.overhead_us_p50"] = percentile(overhead.sorted(), 50)
	m["trace.spans"] = float64(len(spans))
	m["trace.spans_dropped"] = float64(rec.dropped.Load())
}
