package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pds2/internal/api"
	"pds2/internal/telemetry"
)

// ReportSchema versions the LOAD_<date>.json layout so a reader can
// refuse incompatible reports.
const ReportSchema = "pds2/bench/v1"

// ClassReport is the per-traffic-class result. Quantiles come from the
// generator-side "loadgen.<class>_seconds" histogram — for the submit
// classes that is the HTTP round trip to admission; lifecycle ops are
// receipt-gated and so include a commit round trip.
type ClassReport struct {
	Class      string  `json:"class"`
	Ops        uint64  `json:"ops"`
	Errors     uint64  `json:"errors"`
	RatePerSec float64 `json:"rate_per_sec"`
	P50        float64 `json:"p50_seconds"`
	P95        float64 `json:"p95_seconds"`
	P99        float64 `json:"p99_seconds"`
	Max        float64 `json:"max_seconds"`
}

// Report is one load run's result — the LOAD_<date>.json payload.
type Report struct {
	Schema      string  `json:"schema"`
	Date        string  `json:"date"`
	Target      string  `json:"target"`
	Seed        uint64  `json:"seed"`
	Accounts    int     `json:"accounts"`
	Workers     int     `json:"workers"`
	OfferedRate float64 `json:"offered_rate_per_sec"`
	Mix         Mix     `json:"mix"`
	DurationSec float64 `json:"duration_seconds"`

	StartHeight uint64 `json:"start_height"`
	EndHeight   uint64 `json:"end_height"`
	Blocks      uint64 `json:"blocks"`

	// CommittedTxs is the delta of the node's ledger.tx.applied_total
	// counter over the run — transactions that actually executed in
	// sealed blocks, the honest throughput number (admission without
	// commitment is not throughput).
	CommittedTxs      uint64  `json:"committed_txs"`
	CommittedTxPerSec float64 `json:"committed_tx_per_sec"`

	Ops       uint64  `json:"ops"`
	Errors    uint64  `json:"errors"`
	Shed      uint64  `json:"shed"`
	ErrorRate float64 `json:"error_rate"`

	Classes []ClassReport `json:"classes"`

	// Build identifies the generator binary and host (git commit, Go
	// version, CPU count); NodeBuild is the node's own identity read
	// from GET /v1/buildinfo, absent when the node predates the
	// endpoint. Self-hosted runs show the same commit on both.
	Build     telemetry.BuildInfo  `json:"build"`
	NodeBuild *telemetry.BuildInfo `json:"node_build,omitempty"`

	// Runtime summarizes the Go runtime during the measured phase —
	// what the throughput numbers cost in GC and memory terms.
	Runtime RuntimeReport `json:"runtime"`

	SLO      SLO      `json:"slo"`
	Breaches []string `json:"breaches,omitempty"`
}

// RuntimeReport is the runtime-health section of a bench report: GC
// pause tail, peak heap occupancy and peak goroutine count over the
// run. Source says whose runtime was measured — "node" when the node
// under test runs the runtime sampler (the interesting side), falling
// back to "loadgen" (the generator's own process) against nodes that
// don't export runtime gauges.
type RuntimeReport struct {
	Source             string  `json:"source"`
	GCPauseP99Seconds  float64 `json:"gc_pause_p99_seconds"`
	HeapInusePeakBytes uint64  `json:"heap_inuse_peak_bytes"`
	GoroutinesPeak     uint64  `json:"goroutines_peak"`
}

// runtimeReport builds the runtime section, preferring the node-side
// snapshot. The peak-heap gauge doubles as the "did the sampler run"
// probe: it is zero only when no sample was ever taken.
func runtimeReport(node, local telemetry.Snapshot) RuntimeReport {
	if r, ok := runtimeFrom(node, "node"); ok {
		return r
	}
	r, _ := runtimeFrom(local, "loadgen")
	return r
}

func runtimeFrom(s telemetry.Snapshot, source string) (RuntimeReport, bool) {
	peak := counterValue(s, telemetry.MetricHeapInusePeak)
	if peak == 0 {
		return RuntimeReport{Source: source}, false
	}
	return RuntimeReport{
		Source:             source,
		GCPauseP99Seconds:  counterValue(s, telemetry.MetricGCPauseP99),
		HeapInusePeakBytes: uint64(peak),
		GoroutinesPeak:     uint64(counterValue(s, telemetry.MetricGoroutinesPeak)),
	}, true
}

// Filename returns the canonical report name for its date.
func (r *Report) Filename() string { return "LOAD_" + r.Date + ".json" }

// WriteFile writes the report into dir under its canonical name and
// returns the full path.
func (r *Report) WriteFile(dir string) (string, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.Filename())
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// checkSLO evaluates the report against slo and returns human-readable
// breach descriptions (empty = pass).
func (r *Report) checkSLO(slo SLO) []string {
	var breaches []string
	if slo.MinTxPerSec > 0 && r.CommittedTxPerSec < slo.MinTxPerSec {
		breaches = append(breaches, fmt.Sprintf(
			"committed throughput %.1f tx/s below the %.1f tx/s floor",
			r.CommittedTxPerSec, slo.MinTxPerSec))
	}
	if slo.MaxP99 > 0 {
		limit := slo.MaxP99.Seconds()
		for _, c := range r.Classes {
			if c.Class == ClassLifecycle || c.Ops == 0 {
				continue // receipt-gated: block-interval dominated
			}
			if c.P99 > limit {
				breaches = append(breaches, fmt.Sprintf(
					"%s p99 %.1fms over the %.1fms ceiling",
					c.Class, c.P99*1e3, limit*1e3))
			}
		}
	}
	if slo.MaxErrorRate > 0 && r.ErrorRate > slo.MaxErrorRate {
		breaches = append(breaches, fmt.Sprintf(
			"error rate %.2f%% over the %.2f%% ceiling",
			r.ErrorRate*100, slo.MaxErrorRate*100))
	}
	return breaches
}

// counterValue finds a counter's value in a telemetry snapshot.
func counterValue(s telemetry.Snapshot, name string) float64 {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// snapshotClasses plucks the per-class latency histograms out of a
// snapshot. The histograms are process-lifetime instruments, so in a
// multi-run process the quantiles cover every run so far; each Run's
// op and error counts, by contrast, are exact per-run worker tallies.
func snapshotClasses(s telemetry.Snapshot) map[string]telemetry.Metric {
	out := make(map[string]telemetry.Metric, len(Classes))
	for _, class := range Classes {
		name := "loadgen." + class + "_seconds"
		for _, m := range s.Metrics {
			if m.Name == name {
				out[class] = m
				break
			}
		}
	}
	return out
}

func buildReport(cfg Config, elapsed time.Duration, before, after telemetry.Snapshot,
	local map[string]telemetry.Metric, h0, h1 api.StatusResponse,
	workers []*worker, shed uint64) *Report {

	rep := &Report{
		Schema:      ReportSchema,
		Date:        time.Now().UTC().Format("2006-01-02"),
		Target:      cfg.Target,
		Seed:        cfg.Seed,
		Accounts:    cfg.Accounts,
		Workers:     len(workers),
		OfferedRate: cfg.Rate,
		Mix:         cfg.Mix,
		DurationSec: elapsed.Seconds(),
		StartHeight: h0.Height,
		EndHeight:   h1.Height,
		Blocks:      h1.Height - h0.Height,
		SLO:         cfg.SLO,
		Shed:        shed,
	}
	applied := counterValue(after, "ledger.tx.applied_total") - counterValue(before, "ledger.tx.applied_total")
	if applied > 0 {
		rep.CommittedTxs = uint64(applied)
	}
	if elapsed > 0 {
		rep.CommittedTxPerSec = applied / elapsed.Seconds()
	}
	for _, class := range Classes {
		var ops, errs uint64
		for _, wk := range workers {
			ops += wk.ops[class]
			errs += wk.errs[class]
		}
		rep.Ops += ops
		rep.Errors += errs
		cr := ClassReport{Class: class, Ops: ops, Errors: errs}
		if elapsed > 0 {
			cr.RatePerSec = float64(ops) / elapsed.Seconds()
		}
		if m, ok := local[class]; ok {
			cr.P50, cr.P95, cr.P99, cr.Max = m.P50, m.P95, m.P99, m.Max
		}
		rep.Classes = append(rep.Classes, cr)
	}
	if rep.Ops > 0 {
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Ops)
	}
	return rep
}
