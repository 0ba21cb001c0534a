// Package telemetry is the observability substrate of the PDS²
// reproduction: a lock-sharded metrics registry (counters, gauges and
// fixed-bucket histograms with quantile snapshots) plus a lightweight
// span tracer (trace.go). Every hot path in the stack — ledger block
// production, contract execution, the workload lifecycle, gossip rounds,
// TEE calls — reports into the process-wide default registry, and the
// API server exposes the snapshot on /v1/metrics and /v1/trace.
//
// The design goal is near-zero cost when telemetry is off, which is the
// default: instruments are resolved once (typically into package-level
// vars) and every recording call starts with a single atomic load of the
// enabled flag, so a disabled Counter.Inc or Histogram.Time costs a few
// nanoseconds and allocates nothing (see BenchmarkTelemetryOverhead).
// When enabled, counters and gauges are single atomic operations and
// histogram observations touch one bucket plus a handful of CAS loops;
// registration (name → instrument lookup) is the only locking path and
// is sharded by name hash to stay off the contention radar.
package telemetry

import (
	"fmt"
	"hash/maphash"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// numShards is the registration-lock fan-out. Registration is rare (hot
// paths hold instrument pointers), so this only matters for Snapshot
// concurrency and pathological lookup storms.
const numShards = 16

// shard is one slice of the name → instrument map with its own lock.
type shard struct {
	mu      sync.RWMutex
	metrics map[string]any // *Counter | *Gauge | *Histogram
}

// Registry holds named instruments and a tracer. The zero value is not
// usable; call New. A Registry starts disabled: instruments accept calls
// but record nothing until SetEnabled(true).
type Registry struct {
	enabled atomic.Bool
	node    atomic.Value // string: this node's identity on recorded spans
	shards  [numShards]shard
	tracer  *Tracer
	seed    maphash.Seed
}

// New returns an empty, disabled registry with a tracer of the default
// span capacity.
func New() *Registry {
	r := &Registry{seed: maphash.MakeSeed()}
	for i := range r.shards {
		r.shards[i].metrics = make(map[string]any)
	}
	r.tracer = newTracer(r, DefaultSpanCapacity)
	return r
}

// SetEnabled turns recording on or off. Off is the default and the
// near-zero-cost state; already-accumulated values are retained.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether the registry records.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// SetNode names the node this registry belongs to. Spans recorded after
// the call carry the name, which is how a Collector attributes merged
// spans to nodes. Safe to call concurrently with recording.
func (r *Registry) SetNode(name string) { r.node.Store(name) }

// Node returns the registry's node name ("" until SetNode).
func (r *Registry) Node() string {
	if v, ok := r.node.Load().(string); ok {
		return v
	}
	return ""
}

// Tracer returns the registry's span tracer.
func (r *Registry) Tracer() *Tracer { return r.tracer }

func (r *Registry) shardFor(name string) *shard {
	return &r.shards[maphash.String(r.seed, name)%numShards]
}

// lookup finds or creates the instrument under name. create must return
// a fresh instrument; a kind mismatch with an existing name panics, as
// it is always a programming error.
func (r *Registry) lookup(name string, kind string, create func() any) any {
	s := r.shardFor(name)
	s.mu.RLock()
	m, ok := s.metrics[name]
	s.mu.RUnlock()
	if !ok {
		s.mu.Lock()
		if m, ok = s.metrics[name]; !ok {
			m = create()
			s.metrics[name] = m
		}
		s.mu.Unlock()
	}
	switch m.(type) {
	case *Counter:
		if kind != KindCounter {
			panic(fmt.Sprintf("telemetry: %q is a counter, requested as %s", name, kind))
		}
	case *Gauge:
		if kind != KindGauge {
			panic(fmt.Sprintf("telemetry: %q is a gauge, requested as %s", name, kind))
		}
	case *Histogram:
		if kind != KindHistogram {
			panic(fmt.Sprintf("telemetry: %q is a histogram, requested as %s", name, kind))
		}
	}
	return m
}

// Instrument kinds as they appear in snapshots.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Counter returns the monotonically increasing counter registered under
// name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return r.lookup(name, KindCounter, func() any { return &Counter{r: r, name: name} }).(*Counter)
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	return r.lookup(name, KindGauge, func() any { return &Gauge{r: r, name: name} }).(*Gauge)
}

// Histogram returns the histogram registered under name, creating it
// with the given ascending bucket upper bounds on first use (later
// callers inherit the first caller's buckets). Nil buckets select
// TimeBuckets.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	return r.lookup(name, KindHistogram, func() any {
		if len(buckets) == 0 {
			buckets = TimeBuckets
		}
		h := &Histogram{r: r, name: name, bounds: append([]float64(nil), buckets...)}
		h.counts = make([]atomic.Uint64, len(h.bounds)+1)
		h.reset()
		return h
	}).(*Histogram)
}

// --- Counter ---

// Counter is a monotonically increasing uint64. All methods are safe for
// concurrent use and nil-safe, so unwired instruments are inert.
type Counter struct {
	r    *Registry
	name string
	v    atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increments the counter by n when the registry is enabled.
func (c *Counter) Add(n uint64) {
	if c == nil || !c.r.enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the accumulated total.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// --- Gauge ---

// Gauge is a float64 that can move in both directions (queue depths,
// heights). Safe for concurrent use; nil-safe.
type Gauge struct {
	r    *Registry
	name string
	bits atomic.Uint64 // float64 bits
}

// Set stores v when the registry is enabled.
func (g *Gauge) Set(v float64) {
	if g == nil || !g.r.enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// --- Histogram ---

// Histogram accumulates observations into fixed buckets and tracks
// count, sum, min and max, from which snapshots derive p50/p95/p99.
// Observations are lock-free; safe for concurrent use; nil-safe.
type Histogram struct {
	r      *Registry
	name   string
	bounds []float64       // ascending upper bounds; implicit +Inf tail
	counts []atomic.Uint64 // len(bounds)+1
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	min    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits
}

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(math.Float64bits(0))
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
}

// Observe records one value when the registry is enabled.
func (h *Histogram) Observe(v float64) {
	if h == nil || !h.r.enabled.Load() {
		return
	}
	// Binary search for the first bound >= v; the tail bucket is +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	casAdd(&h.sum, v)
	casMin(&h.min, v)
	casMax(&h.max, v)
}

func casAdd(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func casMin(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func casMax(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Timer is an in-flight latency measurement bound to a histogram. The
// zero Timer (returned when telemetry is disabled) is inert, so the
// disabled path never reads the clock.
type Timer struct {
	h     *Histogram
	start time.Time
}

// Time starts a timer against the histogram. Observe the elapsed time
// with Stop.
func (h *Histogram) Time() Timer {
	if h == nil || !h.r.enabled.Load() {
		return Timer{}
	}
	return Timer{h: h, start: time.Now()}
}

// Stop records the seconds elapsed since Time and returns them. A zero
// Timer records nothing.
func (t Timer) Stop() float64 {
	if t.h == nil {
		return 0
	}
	s := time.Since(t.start).Seconds()
	t.h.Observe(s)
	return s
}

// --- Bucket presets ---

// TimeBuckets covers latencies from 1 µs to 10 s, in seconds — the
// default for every *_seconds histogram.
var TimeBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// CountBuckets covers small cardinalities: batch sizes, depths, churn.
var CountBuckets = []float64{0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// GasBuckets covers contract gas consumption per call.
var GasBuckets = []float64{1e3, 5e3, 1e4, 5e4, 1e5, 5e5, 1e6, 5e6, 1e7, 5e7}

// --- Snapshot ---

// Metric is one instrument's state at snapshot time. Histogram-only
// fields are zero for counters and gauges.
type Metric struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`           // counter total or gauge level
	Count uint64  `json:"count,omitempty"` // histogram observations
	Sum   float64 `json:"sum,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P95   float64 `json:"p95,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// Snapshot is a consistent-enough point-in-time view of the registry:
// each instrument is read atomically, sorted by name.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot captures every registered instrument. It works whether or
// not the registry is enabled (a disabled registry reports whatever was
// accumulated while it was on).
func (r *Registry) Snapshot() Snapshot {
	var out []Metric
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for name, m := range s.metrics {
			switch v := m.(type) {
			case *Counter:
				out = append(out, Metric{Name: name, Kind: KindCounter, Value: float64(v.Value())})
			case *Gauge:
				out = append(out, Metric{Name: name, Kind: KindGauge, Value: v.Value()})
			case *Histogram:
				out = append(out, v.snapshot())
			}
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return Snapshot{Metrics: out}
}

func (h *Histogram) snapshot() Metric {
	m := Metric{Name: h.name, Kind: KindHistogram, Count: h.count.Load()}
	if m.Count == 0 {
		return m
	}
	m.Sum = math.Float64frombits(h.sum.Load())
	m.Min = math.Float64frombits(h.min.Load())
	m.Max = math.Float64frombits(h.max.Load())
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	m.P50 = h.quantile(counts, total, 0.50, m.Min, m.Max)
	m.P95 = h.quantile(counts, total, 0.95, m.Min, m.Max)
	m.P99 = h.quantile(counts, total, 0.99, m.Min, m.Max)
	return m
}

// quantile interpolates linearly inside the bucket containing the
// target rank; the open tail bucket reports the observed max.
func (h *Histogram) quantile(counts []uint64, total uint64, q, min, max float64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		lo := min
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := max
		if i < len(h.bounds) {
			hi = h.bounds[i]
		}
		if hi > max {
			hi = max
		}
		if lo < min {
			lo = min
		}
		frac := (rank - prev) / float64(c)
		return lo + (hi-lo)*frac
	}
	return max
}

// Get returns the named metric from the snapshot.
func (s Snapshot) Get(name string) (Metric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Families returns the sorted set of metric-name prefixes (the segment
// before the first dot) with at least one non-zero metric — the
// subsystems that actually reported.
func (s Snapshot) Families() []string {
	seen := map[string]bool{}
	for _, m := range s.Metrics {
		if m.Value == 0 && m.Count == 0 {
			continue
		}
		fam, _, _ := strings.Cut(m.Name, ".")
		seen[fam] = true
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Summary renders the non-zero metrics as aligned text, one per line —
// the human-readable form used by the pds2 CLI and the experiment
// runner.
func (s Snapshot) Summary() string {
	var sb strings.Builder
	for _, m := range s.Metrics {
		switch m.Kind {
		case KindHistogram:
			if m.Count == 0 {
				continue
			}
			fmt.Fprintf(&sb, "  %-34s count=%d sum=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g\n",
				m.Name, m.Count, m.Sum, m.P50, m.P95, m.P99, m.Max)
		default:
			if m.Value == 0 {
				continue
			}
			fmt.Fprintf(&sb, "  %-34s %.6g\n", m.Name, m.Value)
		}
	}
	return sb.String()
}

// Reset zeroes every instrument and drops all recorded spans, keeping
// registrations intact. Concurrent observers may land on either side of
// the reset; the per-instrument state stays internally consistent.
func (r *Registry) Reset() {
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for _, m := range s.metrics {
			switch v := m.(type) {
			case *Counter:
				v.v.Store(0)
			case *Gauge:
				v.bits.Store(0)
			case *Histogram:
				v.reset()
			}
		}
		s.mu.RUnlock()
	}
	r.tracer.Reset()
}

// --- Default registry ---

// std is the process-wide registry every instrumented package reports
// into. It starts disabled.
var std = New()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// Enable turns on recording in the default registry.
func Enable() { std.SetEnabled(true) }

// Disable turns off recording in the default registry.
func Disable() { std.SetEnabled(false) }

// C returns a counter in the default registry — the form instrumented
// packages use for their package-level instrument vars.
func C(name string) *Counter { return std.Counter(name) }

// G returns a gauge in the default registry.
func G(name string) *Gauge { return std.Gauge(name) }

// H returns a histogram in the default registry.
func H(name string, buckets []float64) *Histogram { return std.Histogram(name, buckets) }

// StartSpan opens a span in the default registry's tracer. A zero
// parent context starts a new trace. Returns nil (inert) when disabled.
func StartSpan(name string, parent SpanContext) *ActiveSpan {
	return std.tracer.Start(name, parent)
}

// SetNode names the default registry's node, for span attribution and
// the structured log.
func SetNode(name string) {
	std.SetNode(name)
	stdLog.SetNode(name)
}
