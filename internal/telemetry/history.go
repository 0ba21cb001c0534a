package telemetry

import (
	"sync"
	"time"
)

// History turns the registry's point-in-time snapshots into a bounded
// time series: a fixed-interval ring of full registry snapshots, each
// stamped with the node name and sample time. With it, "what was the
// mempool depth / seal latency / fsync p99 during that 30-second chaos
// run" is answerable after the fact — the question a lone /v1/metrics
// snapshot cannot answer. The ring is bounded, so history is always
// safe to leave on; the API serves it at GET /v1/metrics/history and the
// Collector merges rings from many nodes into per-node series.
type History struct {
	r        *Registry
	interval time.Duration

	// now is the sample clock, swappable by tests that need to fabricate
	// skewed or out-of-order timelines.
	now func() time.Time

	mu      sync.Mutex
	samples ring[HistorySample]

	stop chan struct{}
	done chan struct{}
}

// HistorySample is one ring entry: the full registry snapshot at one
// instant on one node.
type HistorySample struct {
	Node    string   `json:"node,omitempty"`
	UnixNS  int64    `json:"unix_ns"`
	Metrics []Metric `json:"metrics"`
}

// Get returns the named metric from the sample.
func (s HistorySample) Get(name string) (Metric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Default history cadence: 250ms keeps a 5-second window at 20 samples
// (sub-second phenomena like a seal stall are visible) while a full
// ring spans five minutes — enough to cover any smoke or chaos run.
const (
	DefaultHistoryInterval = 250 * time.Millisecond
	DefaultHistoryCapacity = 1200
)

// NewHistory builds a history ring over r without starting the sampling
// ticker. interval <= 0 selects DefaultHistoryInterval; capacity <= 0
// selects DefaultHistoryCapacity.
func NewHistory(r *Registry, interval time.Duration, capacity int) *History {
	if interval <= 0 {
		interval = DefaultHistoryInterval
	}
	if capacity <= 0 {
		capacity = DefaultHistoryCapacity
	}
	return &History{
		r:        r,
		interval: interval,
		now:      time.Now,
		samples:  newRing[HistorySample](capacity),
	}
}

// Capacity returns the ring size in samples.
func (h *History) Capacity() int { return len(h.samples.buf) }

// Record takes one sample now. The ticker calls this; tests and the
// diag capture path may call it directly for an up-to-the-instant tail
// sample.
func (h *History) Record() {
	s := HistorySample{
		Node:    h.r.Node(),
		UnixNS:  h.now().UnixNano(),
		Metrics: h.r.Snapshot().Metrics,
	}
	h.mu.Lock()
	h.samples.push(s)
	h.mu.Unlock()
}

// Start begins background sampling every Interval. Starting an already
// started history is a no-op.
func (h *History) Start() {
	h.mu.Lock()
	if h.stop != nil {
		h.mu.Unlock()
		return
	}
	h.stop = make(chan struct{})
	h.done = make(chan struct{})
	stop, done := h.stop, h.done
	h.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(h.interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				h.Record()
			}
		}
	}()
}

// Stop halts background sampling and waits for the ticker goroutine to
// exit. The recorded ring is retained. Safe to call repeatedly.
func (h *History) Stop() {
	h.mu.Lock()
	stop, done := h.stop, h.done
	h.stop, h.done = nil, nil
	h.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Samples returns the recorded ring, oldest first.
func (h *History) Samples() []HistorySample {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.samples.items()
}

// Window returns the samples from the trailing window d (0 returns
// everything), oldest first.
func (h *History) Window(d time.Duration) []HistorySample {
	all := h.Samples()
	if d <= 0 {
		return all
	}
	cut := h.now().Add(-d).UnixNano()
	// The ring is in record order; find the first retained sample.
	for i, s := range all {
		if s.UnixNS >= cut {
			return all[i:]
		}
	}
	return []HistorySample{}
}

// HistoryDump is the GET /v1/metrics/history wire format: the ring (or a
// trailing window of it) plus the sampling parameters a reader needs to
// interpret gaps.
type HistoryDump struct {
	Node       string          `json:"node,omitempty"`
	IntervalNS int64           `json:"interval_ns"`
	Capacity   int             `json:"capacity"`
	Samples    []HistorySample `json:"samples"`
}

// Dump packages a window of the ring for serving. The sample slice is
// never nil, so an empty history serializes as {"samples": []}.
func (h *History) Dump(window time.Duration) HistoryDump {
	samples := h.Window(window)
	if samples == nil {
		samples = []HistorySample{}
	}
	return HistoryDump{
		Node:       h.r.Node(),
		IntervalNS: int64(h.interval),
		Capacity:   h.Capacity(),
		Samples:    samples,
	}
}

// SeriesPoint is one observation of one metric over time. Value carries
// the counter total or gauge level; for histograms it is the p99, with
// Count alongside so rate math stays possible.
type SeriesPoint struct {
	UnixNS int64   `json:"unix_ns"`
	Value  float64 `json:"value"`
	Count  uint64  `json:"count,omitempty"`
}

// Series extracts one metric's time series from a dump, in sample
// order. Samples that lack the metric (e.g. recorded before the
// instrument first registered) are skipped.
func (d HistoryDump) Series(name string) []SeriesPoint {
	var out []SeriesPoint
	for _, s := range d.Samples {
		m, ok := s.Get(name)
		if !ok {
			continue
		}
		p := SeriesPoint{UnixNS: s.UnixNS, Value: m.Value}
		if m.Kind == KindHistogram {
			p.Value = m.P99
			p.Count = m.Count
		}
		out = append(out, p)
	}
	return out
}

// --- Default history ---

var (
	stdHistMu sync.Mutex
	stdHist   *History
)

// EnableHistory starts (or restarts with new parameters) the default
// registry's metrics history and returns it. interval/capacity <= 0
// select the defaults.
func EnableHistory(interval time.Duration, capacity int) *History {
	stdHistMu.Lock()
	defer stdHistMu.Unlock()
	if stdHist != nil {
		stdHist.Stop()
	}
	stdHist = NewHistory(std, interval, capacity)
	stdHist.Start()
	return stdHist
}

// DisableHistory stops and detaches the default history. The /v1/metrics/
// history endpoint answers 503 afterwards.
func DisableHistory() {
	stdHistMu.Lock()
	defer stdHistMu.Unlock()
	if stdHist != nil {
		stdHist.Stop()
		stdHist = nil
	}
}

// DefaultHistory returns the default registry's history, nil until
// EnableHistory.
func DefaultHistory() *History {
	stdHistMu.Lock()
	defer stdHistMu.Unlock()
	return stdHist
}
