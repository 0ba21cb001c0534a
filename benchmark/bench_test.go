package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pds2/internal/api"
)

func TestPercentileIsExact(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- { // 1..100, unsorted
		s = append(s, float64(i))
	}
	sorted := s.sorted()
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	// An outlier is reported as itself, not as a bucket edge.
	if got := percentile(samples{1, 2, 3, 1234.5678}, 100); got != 1234.5678 {
		t.Errorf("max = %g, want the sample itself", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) samples {
		s := make(samples, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n     int
		wantP float64
	}{{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {3, 50}} {
		p, v := tail(mk(c.n), 99)
		if p != c.wantP {
			t.Errorf("tail of %d samples uses p%g, want p%g", c.n, p, c.wantP)
		}
		if want := percentile(mk(c.n), c.wantP); v != want {
			t.Errorf("tail of %d samples = %g, want %g", c.n, v, want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(samples{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles(samples{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles(1,2,4,8,16) = %g %g %g, want 1.5 4 12", q1, q2, q3)
	}
	if got := spread(samples{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Fatalf("spread(1..10) = %g, want 1", got)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},             // the parent
		{ID: 2, Parent: 1, Start: 10, End: 30},  // a
		{ID: 3, Parent: 1, Start: 20, End: 50},  // b overlaps a
		{ID: 4, Parent: 1, Start: 90, End: 120}, // c is clipped to the parent
		{ID: 5, Parent: 3, Start: 25, End: 45},  // b's child: not the parent's
	}
	self := selfTimes(spans)
	if got := self[1]; got != 50 {
		t.Errorf("parent self time = %d, want 50 (100 − [10,50) − [90,100))", got)
	}
	if got := self[3]; got != 10 {
		t.Errorf("b self time = %d, want 10 (30 − 20)", got)
	}
	if got := self[5]; got != 20 {
		t.Errorf("leaf self time = %d, want its whole duration 20", got)
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *recorder
	id := r.begin(spanAppend, 0, 1)
	r.end(id)
	r.setRef(id, 2)
	if id != 0 || r.spans() != nil {
		t.Fatal("a nil recorder must record nothing")
	}
	rec := newRecorder(2)
	a := rec.begin(spanClientRead, 0, 0)
	rec.end(a)
	rec.begin(spanClientSeal, 0, 0) // never ended: not reported
	if rec.begin(spanAppend, 0, 0) != 0 || rec.dropped.Load() != 1 {
		t.Fatal("a full recorder must drop and count")
	}
	if got := rec.spans(); len(got) != 1 || got[0].Name != spanClientRead {
		t.Fatalf("spans() = %+v, want only the finished span", got)
	}
}

// A handler that stalls must show up in the latency of the ops that
// were due during the stall: an op is timed from its slot, not from when
// the sender got to it, and none is dropped.
func TestCoordinatedOmission(t *testing.T) {
	const stall = 200 * time.Millisecond
	var served atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(api.StatusResponse{Height: 1})
	}))
	defer fake.Close()

	const rate, n = 100.0, 50
	var ops []*op
	for i := 0; i < n; i++ {
		ops = append(ops, &op{kind: opReadStatus, due: slot(i, rate)})
	}
	var height atomic.Uint64
	s := newSender(fake.URL, nil, time.Now(), &height, &feed{})
	start := time.Now()
	st := s.run(phaseSteady, start, ops, nil, start)

	if st.attempted != n || int(served.Load()) != n {
		t.Fatalf("attempted %d, served %d: every scheduled op must be sent (want %d)", st.attempted, served.Load(), n)
	}
	if st.failed != 0 {
		t.Fatalf("%d ops failed: %v", st.failed, st.firstErr)
	}
	lat := st.readMS.sorted()
	if got := p99(lat); len(lat) != n || percentile(lat, 100) < ms(stall) {
		t.Fatalf("slowest of %d ops = %.1f ms, tail %.1f: the stalled op must read ≥ %v", len(lat), percentile(lat, 100), got, stall)
	}
	// Ops due during the stall waited behind it: about stall×rate of them
	// carry at least half the stall. A harness that timed from the send
	// would report only the first op as slow.
	delayed := 0
	for _, v := range lat {
		if v >= ms(stall)/2 {
			delayed++
		}
	}
	if want := int(stall.Seconds()*rate) / 2; delayed < want {
		t.Fatalf("%d ops report ≥ %v, want at least %d: delay imposed on later ops is not counted", delayed, stall/2, want)
	}
	if late := st.lateMS.sorted(); percentile(late, 100) < ms(stall)/2 {
		t.Fatalf("generator lateness max %.1f ms does not show the stall", percentile(late, 100))
	}
}

// toyHTTP is an HTTP workload small enough for tier-1: a second of
// steady load and a second (four blocks) of saturation.
func toyHTTP(workload string) httpScale {
	sc := httpScale{accounts: 400, steadyRate: 60, steadyFrac: 0.5, satCap: 1500}
	if workload == wlRead {
		sc.writeRate = 20
	}
	return sc
}

func toyConfig(t *testing.T, workload string, traced bool) runConfig {
	sc := toyHTTP(workload)
	return runConfig{
		workload: workload, seed: 7, seconds: 2, traced: traced, senders: 2,
		scratch: t.TempDir(), setupRepeats: 1, httpScale: &sc,
		lifecycleScale: &lifecycleScale{
			accounts: 300, providers: 2, executors: 1, samplesEach: 150, dim: 4, epochs: 4,
			lifecycles: 2, transferBlocks: 2, tailBlocks: 1, blockTxs: 20,
		},
	}
}

// checkContract verifies a run's contract line: exactly the four keys,
// every metric of the run's kind present with its unit, finite, and —
// for end-to-end metrics — never zero.
func checkContract(t *testing.T, res *result) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d violations=%v",
			res.Workload, res.Correct, res.Attempted, res.Failed, res.Violations)
	}
	line, err := res.contractLine()
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("contract line has keys %v, want exactly correct, attempted, failed, metrics", got)
	}
	var metrics map[string]contractMetric
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	defs := res.defs()
	if len(metrics) != len(defs) {
		t.Fatalf("%d metrics, want %d", len(metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %+v (present %v), want a finite value in %s", res.Workload, d.name, m, ok, d.unit)
		}
		if !res.Traced && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %g, must never be 0", res.Workload, d.name, m.Value)
		}
	}
}

func TestSmokeTransferLargeState(t *testing.T) {
	res, err := runHTTP(toyConfig(t, wlTransfer, true))
	if err != nil {
		t.Fatal(err)
	}
	checkContract(t, res)
	m := res.Metrics
	if r := m["stage.sum_over_commit"]; math.Abs(r-1) > 0.02 {
		t.Errorf("stage.sum_over_commit = %g, the four stages must telescope to commit latency", r)
	}
	for _, name := range []string{"commit_p50_ms", "commit_tx_per_s", "api.seal.server_ms_p50", "api.requests",
		"chainstore.append_ms_p50", "ledger.state.root_ms_per_block", "ledger.chain.import_us_per_tx",
		"api.submit.handler_us_per_tx", "trace.spans"} {
		if m[name] <= 0 {
			t.Errorf("traced run reports %s = %g", name, m[name])
		}
	}
	if m["api.failed"] != 0 || m["api.shed_429"] != 0 || m["trace.spans_dropped"] != 0 {
		t.Errorf("api.failed=%g api.shed_429=%g trace.spans_dropped=%g, want 0", m["api.failed"], m["api.shed_429"], m["trace.spans_dropped"])
	}
	// Server spans hang off the client spans that caused them.
	byID := make(map[uint32]span)
	for _, s := range res.spans {
		byID[s.ID] = s
	}
	linked, appends := 0, 0
	for _, s := range res.spans {
		switch s.Name {
		case spanServerSubmit:
			if byID[s.Parent].Name == spanClientSubmit {
				linked++
			}
		case spanAppend:
			if byID[s.Parent].Name == spanServerSeal {
				appends++
			}
		}
	}
	if linked == 0 || appends == 0 {
		t.Errorf("%d submit spans linked to a client span, %d appends to a seal span; want both > 0", linked, appends)
	}
}

func TestSmokeReadHeavy(t *testing.T) {
	res, err := runHTTP(toyConfig(t, wlRead, false))
	if err != nil {
		t.Fatal(err)
	}
	checkContract(t, res)
	if res.Metrics["read_per_s"] <= 0 || res.Metrics["admit_p99_ms"] <= 0 {
		t.Errorf("read_per_s=%g admit_p99_ms=%g: reads and background writes must both run", res.Metrics["read_per_s"], res.Metrics["admit_p99_ms"])
	}
}

func TestSmokeMarketMixed(t *testing.T) {
	res, err := runHTTP(toyConfig(t, wlMixed, true))
	if err != nil {
		t.Fatal(err)
	}
	checkContract(t, res)
	if res.Metrics["market.policy.eval_us"] <= 0 || res.Metrics["vm.policy.eval_us"] <= 0 {
		t.Errorf("policy evaluation not measured: declarative %g us, program %g us",
			res.Metrics["market.policy.eval_us"], res.Metrics["vm.policy.eval_us"])
	}
}

// lifecycle_audit is deterministic: two runs of one seed do the same
// work, so the counts repeat exactly.
func TestSmokeLifecycleAuditRepeats(t *testing.T) {
	a, err := runLifecycle(toyConfig(t, wlLifecycle, true))
	if err != nil {
		t.Fatal(err)
	}
	checkContract(t, a)
	b, err := runLifecycle(toyConfig(t, wlLifecycle, true))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"chainstore.log_bytes_per_tx", "market.lifecycle.blocks_mean", "market.blocks", "ledger.gas_per_tx_mean"} {
		if a.Metrics[name] != b.Metrics[name] || a.Metrics[name] <= 0 {
			t.Errorf("%s = %v then %v: the same seed must repeat exactly", name, a.Metrics[name], b.Metrics[name])
		}
	}
	for _, s := range a.spans {
		if strings.HasPrefix(s.Name.String(), "api.") {
			t.Fatalf("lifecycle_audit recorded an %s span: it must not touch the API layer", s.Name)
		}
	}
	for _, name := range []string{"market.stage.submit_ms_p50", "market.stage.match_ms_p50",
		"market.stage.execute_ms_p50", "market.stage.settle_ms_p50", "restart_s", "catchup_tx_per_s"} {
		if a.Metrics[name] <= 0 {
			t.Errorf("%s = %g", name, a.Metrics[name])
		}
	}
	u, err := runLifecycle(toyConfig(t, wlLifecycle, false))
	if err != nil {
		t.Fatal(err)
	}
	checkContract(t, u)
	if u.Metrics["log_bytes_per_tx"] != a.Metrics["chainstore.log_bytes_per_tx"] {
		t.Errorf("log bytes per tx differ between the untraced (%v) and traced (%v) run",
			u.Metrics["log_bytes_per_tx"], a.Metrics["chainstore.log_bytes_per_tx"])
	}
}

func TestSameSeedSameOpStream(t *testing.T) {
	digest := func(workload string, seed uint64) [32]byte {
		env, err := setupHTTP(workload, toyHTTP(workload), seed, 1, 2, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer env.n.close()
		return env.plan.digest()
	}
	for _, wl := range []string{wlRead, wlMixed} {
		a, b, c := digest(wl, 3), digest(wl, 3), digest(wl, 4)
		if a != b {
			t.Errorf("%s: the same seed generated two different op streams", wl)
		}
		if a == c {
			t.Errorf("%s: two seeds generated the same op stream", wl)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "latency_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "throughput_per_s", better: "higher", bound: 0.10}
	steady := samples{100, 101, 99, 100, 102}
	for _, c := range []struct {
		d    metricDef
		a, b samples
		want string
	}{
		{lower, steady, samples{100, 100, 101, 99, 100}, verdictWithin},
		{lower, steady, samples{120, 121, 119, 122, 120}, verdictWorse},
		{lower, steady, samples{80, 81, 79, 80, 82}, verdictBetter},
		{higher, steady, samples{80, 81, 79, 80, 82}, verdictWorse},
		{higher, steady, samples{120, 121, 119, 122, 120}, verdictBetter},
		{lower, steady, samples{60, 140, 100, 90, 130}, verdictUnresolved}, // B's spread exceeds the bound
		{lower, samples{60, 140, 100, 90, 130}, samples{10, 11, 12, 10, 11}, verdictBetter},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.d.name, c.a, c.b, got, c.want)
		}
	}
}

// BENCHMARK.json at the checkout root and the catalogue in spec.go are
// two copies of one contract.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, spec %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, spec has %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d is %q (why %q), spec %q", i, w.Name, w.Why, workloadNames[i])
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) || len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d end-to-end and %d per-layer metrics, spec has %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, d := range endToEndMetrics {
		g := b.EndToEnd[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound == nil || *g.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, spec %+v", i, g, d)
		}
	}
	for i, d := range perLayerMetrics {
		g := b.PerLayer[i]
		if g.Name != d.name || g.Unit != d.unit || g.Bound != nil {
			t.Errorf("per_layer[%d] = %+v, spec %+v", i, g, d)
		}
	}
}
