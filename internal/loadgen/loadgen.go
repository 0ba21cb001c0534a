// Package loadgen is the open-loop load harness for a PDS² governance
// node: it derives a deterministic population of simulated accounts,
// partitions them across workers, and offers a configurable traffic mix
// — native transfers, ERC-20 mints, account reads and full workload
// lifecycles — against the node's real HTTP API at a fixed arrival
// rate, independent of how fast the node answers (the open-loop
// property that exposes queueing collapse, which closed-loop harnesses
// hide by slowing down with the system under test).
//
// Latency per traffic class is observed into the process-wide telemetry
// histograms ("loadgen.<class>_seconds"), committed throughput is read
// from the node's own ledger counters over GET /v1/metrics, and the run is
// judged against SLO thresholds. Results serialize as a LOAD_<date>.json
// report.
//
// The generator and the node agree on the account population purely
// through (seed, n): `pds2-node -load-accounts n -load-seed s` funds
// exactly the addresses `pds2-load -accounts n -seed s` will drive, so
// no key material ever crosses the wire.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"pds2/internal/api"
	"pds2/internal/market"
	"pds2/internal/telemetry"
)

// Traffic class names; each gets a "loadgen.<class>_seconds" histogram.
const (
	ClassTransfer  = "transfer"
	ClassMint      = "mint"
	ClassRead      = "read"
	ClassLifecycle = "lifecycle"
	ClassPolicy    = "policy"
)

// Classes lists every traffic class in report order.
var Classes = []string{ClassTransfer, ClassMint, ClassRead, ClassLifecycle, ClassPolicy}

// Harness instrumentation. Shed counts offered operations the worker
// pool could not absorb (the open-loop backlog signal); errors count
// operations the node answered with a failure.
var (
	mOps    = telemetry.C("loadgen.ops_total")
	mErrors = telemetry.C("loadgen.errors_total")
	mShed   = telemetry.C("loadgen.shed_total")
	logLoad = telemetry.L("loadgen")
)

func classHist(class string) *telemetry.Histogram {
	return telemetry.H("loadgen."+class+"_seconds", telemetry.TimeBuckets)
}

// Mix is a traffic mix as integer weights; an op's class is drawn with
// probability weight/total. Zero-weight classes never run.
type Mix struct {
	Transfers int `json:"transfers"`
	Mints     int `json:"mints"`
	Reads     int `json:"reads"`
	Lifecycle int `json:"lifecycle"`
	// Policy drives the usage-control surface: dataset registrations and
	// policy mutations through the /v1/datasets endpoints, plus policy
	// check reads (where a denial is a correct answer, not an error).
	Policy int `json:"policy,omitempty"`
}

// DefaultMix approximates a marketplace in steady state: mostly value
// movement, some token mints and reads, a trickle of workload
// lifecycles (which are multi-transaction and receipt-gated, hence far
// heavier per op) and of dataset/policy traffic.
func DefaultMix() Mix { return Mix{Transfers: 70, Mints: 10, Reads: 15, Lifecycle: 2, Policy: 3} }

func (m Mix) total() int { return m.Transfers + m.Mints + m.Reads + m.Lifecycle + m.Policy }

// ParseMix parses "transfers=70,mints=10,reads=15,lifecycle=2,policy=3".
// Omitted classes get weight 0; an empty string is the default mix.
func ParseMix(s string) (Mix, error) {
	if strings.TrimSpace(s) == "" {
		return DefaultMix(), nil
	}
	var m Mix
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("loadgen: bad mix entry %q (want class=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return m, fmt.Errorf("loadgen: bad mix weight %q", val)
		}
		switch key {
		case "transfers":
			m.Transfers = w
		case "mints":
			m.Mints = w
		case "reads":
			m.Reads = w
		case "lifecycle":
			m.Lifecycle = w
		case "policy":
			m.Policy = w
		default:
			return m, fmt.Errorf("loadgen: unknown traffic class %q", key)
		}
	}
	if m.total() == 0 {
		return m, errors.New("loadgen: mix has zero total weight")
	}
	return m, nil
}

// SLO is the pass/fail contract a load run is judged against. Zero
// values disable the corresponding check.
type SLO struct {
	// MinTxPerSec is the committed-transaction throughput floor,
	// measured from the node's ledger.tx.applied_total counter.
	MinTxPerSec float64 `json:"min_tx_per_sec,omitempty"`

	// MaxP99 bounds the p99 submit/read latency of the single-request
	// classes (transfer, mint, read). Lifecycle ops are receipt-gated
	// and block-interval dominated, so they are exempt.
	MaxP99 time.Duration `json:"max_p99,omitempty"`

	// MaxErrorRate bounds errors/ops across all classes (shed offered
	// load is reported separately and not counted as an error).
	MaxErrorRate float64 `json:"max_error_rate,omitempty"`
}

// Config parameterizes a load run.
type Config struct {
	// Target is the base URL of the node under test.
	Target string

	// Accounts is the simulated account population (default 100_000).
	Accounts int

	// Workers is the number of concurrent workers; accounts are
	// partitioned across them so no two workers race a nonce
	// (default 16).
	Workers int

	// Rate is the offered load in operations per second across all
	// classes (default 400). The arrival schedule is open-loop: slots
	// fire on time regardless of node latency, and slots no worker is
	// free to take are counted as shed.
	Rate float64

	// Duration bounds the measured phase (default 10s). Setup (worker
	// registration, token deploys) happens before the clock starts.
	Duration time.Duration

	// Mix is the traffic mix (zero value selects DefaultMix).
	Mix Mix

	// Seed derives the account population and every random choice the
	// generator makes. The node must have funded market.Accounts(Seed, n).
	Seed uint64

	// FundEach is the expected genesis balance per account, used only
	// for the pre-flight funding check (default 1_000_000).
	FundEach uint64

	// SLO is the pass/fail contract; the zero value disables checks.
	SLO SLO

	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Accounts <= 0 {
		c.Accounts = 100_000
	}
	if c.Workers <= 0 {
		c.Workers = 16
	}
	if c.Rate <= 0 {
		c.Rate = 400
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Mix.total() == 0 {
		c.Mix = DefaultMix()
	}
	if c.FundEach == 0 {
		c.FundEach = 1_000_000
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Workers > c.Accounts/2 {
		c.Workers = max(1, c.Accounts/2)
	}
	return c
}

// Run executes one load run against cfg.Target and returns the report.
// An SLO breach is reported in Report.Breaches, not as an error; err is
// reserved for runs that could not execute at all (unreachable node,
// unfunded accounts, setup failure).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	client := api.NewClient(cfg.Target,
		api.WithRetryPolicy(api.NoRetry), // retries would launder latency
		api.WithTimeout(15*time.Second))

	status, err := client.Status(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: node unreachable: %w", err)
	}

	cfg.Logf("deriving %d accounts (seed %d)", cfg.Accounts, cfg.Seed)
	ids := market.Accounts(cfg.Seed, cfg.Accounts)

	// Pre-flight: the population must actually be funded, or every
	// transfer would bounce and the run would measure nothing.
	probe, err := client.Account(ctx, ids[len(ids)-1].Address())
	if err != nil {
		return nil, fmt.Errorf("loadgen: funding probe: %w", err)
	}
	if probe.Balance == 0 {
		return nil, fmt.Errorf("loadgen: account population is unfunded — start the node with -load-accounts %d -load-seed %d (or matching -fund)", cfg.Accounts, cfg.Seed)
	}

	// Partition accounts across workers and run per-worker setup
	// (consumer registration, ERC-20 deploy) before the clock starts.
	cfg.Logf("setting up %d workers (token deploys, consumer registration)", cfg.Workers)
	workers := make([]*worker, cfg.Workers)
	var (
		wg       sync.WaitGroup
		setupErr error
		errOnce  sync.Once
	)
	for w := range workers {
		lo := w * cfg.Accounts / cfg.Workers
		hi := (w + 1) * cfg.Accounts / cfg.Workers
		workers[w] = newWorker(w, cfg, client, ids, lo, hi, status.QAPub, status.Registry)
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			if err := wk.setup(ctx); err != nil {
				errOnce.Do(func() { setupErr = fmt.Errorf("loadgen: worker %d setup: %w", wk.index, err) })
			}
		}(workers[w])
	}
	wg.Wait()
	if setupErr != nil {
		return nil, setupErr
	}

	// Run the generator-side runtime sampler for the measured phase so
	// the report's runtime section has a fallback when the node under
	// test doesn't export runtime gauges.
	sampler := telemetry.StartRuntimeSampler(telemetry.Default(), time.Second)
	defer sampler.Stop()

	// Baselines around the measured phase.
	before, err := client.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: read metrics baseline: %w", err)
	}
	h0, err := client.Status(ctx)
	if err != nil {
		return nil, err
	}

	cfg.Logf("offering %.0f ops/s for %s (mix %+v)", cfg.Rate, cfg.Duration, cfg.Mix)
	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	// Open-loop dispatcher: slots fire on the wall clock; the buffer
	// bounds the backlog to one op per worker, and a slot that cannot
	// even be queued is shed — never silently delayed behind slow
	// responses, which is what makes the loop open.
	slots := make(chan struct{}, cfg.Workers)
	var shed uint64
	for _, wk := range workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			wk.run(runCtx, slots)
		}(wk)
	}
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	start := time.Now()
	next := start
dispatch:
	for {
		next = next.Add(interval)
		d := time.Until(next)
		if d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-runCtx.Done():
				timer.Stop()
				break dispatch
			case <-timer.C:
			}
		} else if runCtx.Err() != nil {
			break dispatch
		}
		select {
		case slots <- struct{}{}:
		case <-runCtx.Done():
			break dispatch
		default:
			shed++
			mShed.Inc()
		}
	}
	close(slots)
	cancel()
	wg.Wait()
	elapsed := time.Since(start)

	after, err := client.Metrics(context.WithoutCancel(ctx))
	if err != nil {
		return nil, fmt.Errorf("loadgen: read metrics after run: %w", err)
	}
	h1, err := client.Status(context.WithoutCancel(ctx))
	if err != nil {
		return nil, err
	}
	sampler.Sample() // final tick so short runs still record peaks
	localSnap := telemetry.Default().Snapshot()
	local := snapshotClasses(localSnap)

	rep := buildReport(cfg, elapsed, before, after, local, h0, h1, workers, shed)
	rep.Build = telemetry.CollectBuildInfo()
	if bi, err := client.BuildInfo(context.WithoutCancel(ctx)); err == nil {
		rep.NodeBuild = &bi
	}
	rep.Runtime = runtimeReport(after, localSnap)
	rep.Breaches = rep.checkSLO(cfg.SLO)
	logLoad.Info("load run complete",
		telemetry.U64("ops", rep.Ops),
		telemetry.U64("errors", rep.Errors),
		telemetry.U64("shed", rep.Shed),
		telemetry.Int("breaches", len(rep.Breaches)))
	return rep, nil
}
