package main

import "time"

// Node under test: fixed, none a flag. These mirror how cmd/pds2-node is
// run for load (see README.md "Node under test").
const (
	blockInterval = 250 * time.Millisecond // auto-sealer ticker
	blockGasLimit = 120_000_000
	mempoolSize   = 200_000
	snapshotEvery = 1000
	genesisFund   = 1_000_000 // native tokens per funded account
)

// Harness constants.
const (
	// warmup runs the steady op stream unrecorded so keep-alive
	// connections, the receipt ring and lazy node state exist before
	// the clock starts; it is not part of -seconds.
	warmup = 750 * time.Millisecond

	// setupRepeats is how many times a run sets the node up; setup_s is
	// the median, the last instance is the one measured.
	setupRepeats = 3

	// layerPassBudget time-boxes the isolated layer pass of a traced run.
	layerPassBudget = 3 * time.Second

	// requestTimeout bounds one generator HTTP call; a timeout is a
	// failed op.
	requestTimeout = 15 * time.Second
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlTransfer  = "transfer_large_state"
	wlRead      = "read_heavy"
	wlMixed     = "market_mixed"
	wlLifecycle = "lifecycle_audit"
)

var workloadNames = []string{wlTransfer, wlRead, wlMixed, wlLifecycle}

// httpScale sizes one HTTP workload. The values below are frozen at the
// commit that introduced the benchmark (README.md "Frozen calibration").
type httpScale struct {
	accounts   int     // funded accounts at genesis
	steadyRate float64 // open-loop primary ops/s in the steady phase
	writeRate  float64 // read_heavy only: background tx/s, both phases
	steadyFrac float64 // share of -seconds spent in steady; the rest is sat
	// satCap bounds the ops generated (and pre-signed) for the closed-loop
	// phase, in ops/s. A node faster than this exhausts the supply; the
	// phase then ends early and its rate is measured over the shorter
	// window (info.sat_ops_exhausted says so).
	satCap float64
}

var frozenHTTP = map[string]httpScale{
	wlTransfer: {accounts: 100_000, steadyRate: 300, steadyFrac: 0.6, satCap: 6000},
	wlRead:     {accounts: 100_000, steadyRate: 400, writeRate: 100, steadyFrac: 0.6, satCap: 30000},
	wlMixed:    {accounts: 5_000, steadyRate: 200, steadyFrac: 0.6, satCap: 8000},
}

// lifecycleScale sizes lifecycle_audit. Its phases are counts, not
// durations, so the work is identical for a given -seconds; the counts
// below are those of the frozen run length (defaultSeconds) and scale
// linearly with -seconds.
type lifecycleScale struct {
	accounts       int
	providers      int
	executors      int
	samplesEach    int // training samples per provider dataset
	dim            int
	epochs         int
	lifecycles     int // phase (a)
	transferBlocks int // phase (b)
	tailBlocks     int // phase (d)
	blockTxs       int
}

var lifecycleRef = lifecycleScale{
	accounts: 20_000, providers: 8, executors: 2, samplesEach: 200, dim: 16, epochs: 4,
	lifecycles: 15, transferBlocks: 40, tailBlocks: 10, blockTxs: 500,
}

// scaledLifecycle returns the reference counts scaled to a run length.
func scaledLifecycle(seconds int) lifecycleScale {
	s := lifecycleRef
	scale := func(n, floor int) int {
		v := (n*seconds + defaultSeconds/2) / defaultSeconds
		if v < floor {
			v = floor
		}
		return v
	}
	s.lifecycles = scale(s.lifecycles, 2)
	s.transferBlocks = scale(s.transferBlocks, 2)
	s.tailBlocks = scale(s.tailBlocks, 1)
	return s
}

// metricDef is one named metric with its unit. End-to-end metrics also
// carry the direction that is better and the bound: the share of the
// parent's median by which the metric may worsen before it is a
// regression (BENCHMARK.json holds the same values; a test compares).
type metricDef struct {
	name, unit string
	better     string
	bound      float64
}

// End-to-end metrics, reported by every workload of an untraced run.
// The two latencies are slots whose meaning is the workload's own
// user-visible number (README.md "End-to-end metrics" has the table).
// Saturation throughput is not among them: measured on two sets of ten
// runs of the same code it moved by up to 50 % with the host's speed
// (README.md "Demoted metrics"), so it is a per-layer number.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"log_bytes_per_tx", "B", "lower", 0.01},
	{"peak_rss_mib", "MiB", "lower", 0.25},
}

// Per-layer metrics, reported by every workload of a traced run; a
// metric whose layer the workload does not exercise reads 0.
var perLayerMetrics = []metricDef{
	// The issue's workload-specific end-to-end numbers, as the traced
	// run saw them (the untraced slots above carry the gated copies).
	{name: "commit_p50_ms", unit: "ms"}, {name: "commit_p99_ms", unit: "ms"}, {name: "admit_p99_ms", unit: "ms"},
	{name: "commit_tx_per_s", unit: "1/s"},
	{name: "read_p50_ms", unit: "ms"}, {name: "read_p90_ms", unit: "ms"}, {name: "read_p99_ms", unit: "ms"},
	{name: "read_per_s", unit: "1/s"},
	{name: "lifecycle_ms_p50", unit: "ms"}, {name: "catchup_tx_per_s", unit: "1/s"}, {name: "restart_s", unit: "s"},

	{name: "stage.admit_ms_mean", unit: "ms"}, {name: "stage.queue_ms_mean", unit: "ms"},
	{name: "stage.seal_ms_mean", unit: "ms"}, {name: "stage.visible_ms_mean", unit: "ms"},
	{name: "stage.sum_over_commit", unit: "ratio"},

	{name: "gen.late_ms_p99", unit: "ms"}, {name: "api.client.overhead_us_p50", unit: "us"},

	{name: "api.submit.server_us_p50", unit: "us"}, {name: "api.submit.server_ms_p99", unit: "ms"},
	{name: "api.read.server_us_p50", unit: "us"}, {name: "api.read.server_ms_p99", unit: "ms"},
	{name: "api.status.server_ms_p50", unit: "ms"},

	{name: "api.seal.server_ms_p50", unit: "ms"}, {name: "api.seal.server_ms_p99", unit: "ms"},
	{name: "api.seal.busy_share", unit: "ratio"},

	{name: "api.requests", unit: "count"}, {name: "api.failed", unit: "count"}, {name: "api.shed_429", unit: "count"},

	{name: "market.blocks", unit: "count"}, {name: "market.block_txs_mean", unit: "count"},
	{name: "market.empty_ticks", unit: "count"}, {name: "ledger.mempool.depth_max", unit: "count"},

	{name: "chainstore.append_ms_p50", unit: "ms"}, {name: "chainstore.append_ms_p99", unit: "ms"},
	{name: "chainstore.log_bytes_per_tx", unit: "B"}, {name: "chainstore.appends_per_ktx", unit: "count"},

	{name: "api.submit.handler_us_per_tx", unit: "us"},

	{name: "ledger.tx.verify_us_per_tx", unit: "us"}, {name: "ledger.mempool.add_us_per_tx", unit: "us"},
	{name: "ledger.mempool.next_batch_us_per_tx", unit: "us"},

	{name: "ledger.chain.execute_us_per_tx", unit: "us"}, {name: "ledger.state.root_ms_per_block", unit: "ms"},
	{name: "ledger.block.tx_root_us_per_tx", unit: "us"}, {name: "ledger.gas_per_tx_mean", unit: "count"},

	{name: "ledger.chain.import_us_per_tx", unit: "us"}, {name: "ledger.chain.import_coverage", unit: "ratio"},

	{name: "chainstore.append_us_per_tx", unit: "us"}, {name: "chainstore.append_nofsync_us_per_tx", unit: "us"},
	{name: "chainstore.read_us_per_tx", unit: "us"}, {name: "chainstore.reopen_ms", unit: "ms"},

	{name: "market.policy.eval_us", unit: "us"}, {name: "vm.policy.eval_us", unit: "us"},

	{name: "market.stage.submit_ms_p50", unit: "ms"}, {name: "market.stage.match_ms_p50", unit: "ms"},
	{name: "market.stage.execute_ms_p50", unit: "ms"}, {name: "market.stage.settle_ms_p50", unit: "ms"},
	{name: "market.lifecycle.blocks_mean", unit: "count"}, {name: "market.lifecycle.seal_share", unit: "ratio"},

	{name: "runtime.gc_pause_ms_p99", unit: "ms"}, {name: "runtime.heap_inuse_peak_mib", unit: "MiB"},
	{name: "runtime.goroutines_peak", unit: "count"}, {name: "runtime.cpu_s_per_ktx", unit: "s"},

	{name: "trace.spans", unit: "count"}, {name: "trace.spans_dropped", unit: "count"},
}
