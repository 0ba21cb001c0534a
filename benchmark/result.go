package main

import (
	"encoding/json"
	"fmt"
	"io"
	"syscall"
	"time"

	"pds2/internal/telemetry"
)

// result is the outcome of one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Info carries what explains the metrics but is not one: sample
	// counts, the percentile the tail slot used, the op-stream digest.
	Info map[string]any `json:"info,omitempty"`
	// Violations lists every correctness check that failed.
	Violations []string `json:"violations,omitempty"`

	spans  []span
	depths []int // pool depth the sealer saw at each tick (sweep)
}

func newResult(workload string, seed uint64, seconds float64, traced bool) *result {
	return &result{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: make(map[string]float64), Info: make(map[string]any),
	}
}

func (r *result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// check records a violation when err is non-nil.
func (r *result) check(what string, err error) {
	if err != nil {
		r.violate("%s: %v", what, err)
	}
}

// defs is the catalogue the run reports: end-to-end metrics untraced,
// per-layer metrics traced.
func (r *result) defs() []metricDef {
	if r.Traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// contractMetric is one entry of the contract line's metrics object.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine renders the one-line JSON the benchmark contract asks
// for: every end-to-end metric of an untraced run, every per-layer
// metric of a traced one.
func (r *result) contractLine() ([]byte, error) {
	defs := r.defs()
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]contractMetric, len(defs))}
	for _, d := range defs {
		out.Metrics[d.name] = contractMetric{Value: r.Metrics[d.name], Unit: d.unit}
	}
	return json.Marshal(out)
}

// print writes every metric of the run by name with its unit.
func (r *result) print(w io.Writer) {
	mode, defs := "untraced", r.defs()
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed=%d seconds=%g %s: attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, r.Seconds, mode, r.Attempted, r.Failed, r.Correct)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.name, r.Metrics[d.name], d.unit)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
}

// rusage returns the process's resource usage (zero if the call fails).
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return ru
}

// cpuSeconds returns the process's user + system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB returns the process's resident-set high-water mark
// (ru_maxrss is KiB on Linux).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// startRuntimeWatch samples the runtime.* metrics of a traced run with
// the node's own runtime sampler, on a registry of its own so that it
// also works where node telemetry is off (lifecycle_audit). The returned
// function stops sampling and fills the metrics in; the GC pause
// distribution it reads is the process's, from its start.
func startRuntimeWatch() (finish func(*result)) {
	reg := telemetry.New()
	reg.SetEnabled(true)
	sampler := telemetry.StartRuntimeSampler(reg, 100*time.Millisecond)
	return func(r *result) {
		sampler.Stop()
		sampler.Sample()
		r.Metrics["runtime.heap_inuse_peak_mib"] = reg.Gauge(telemetry.MetricHeapInusePeak).Value() / (1 << 20)
		r.Metrics["runtime.goroutines_peak"] = reg.Gauge(telemetry.MetricGoroutinesPeak).Value()
		r.Metrics["runtime.gc_pause_ms_p99"] = reg.Gauge(telemetry.MetricGCPauseP99).Value() * 1000
	}
}
