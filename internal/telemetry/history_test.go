package telemetry

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// fakeClock is an injectable history clock advancing by a fixed step per
// Record, letting tests fabricate precise (or skewed) timelines.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func historyAt(r *Registry, start time.Time, step time.Duration, capacity int) *History {
	h := NewHistory(r, time.Second, capacity)
	h.now = (&fakeClock{t: start, step: step}).now
	return h
}

func TestHistoryRecordAndSeries(t *testing.T) {
	r := enabled(t)
	r.SetNode("n1")
	g := r.Gauge("ledger.mempool.depth")
	h := historyAt(r, time.Unix(1000, 0), time.Second, 16)

	for i := 0; i < 5; i++ {
		g.Set(float64(i * 10))
		h.Record()
	}
	samples := h.Samples()
	if len(samples) != 5 {
		t.Fatalf("samples = %d, want 5", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].UnixNS <= samples[i-1].UnixNS {
			t.Fatal("samples out of record order")
		}
	}
	series := HistoryDump{Samples: samples}.Series("ledger.mempool.depth")
	if len(series) != 5 || series[0].Value != 0 || series[4].Value != 40 {
		t.Fatalf("series = %+v", series)
	}
	if samples[0].Node != "n1" {
		t.Fatalf("node = %q", samples[0].Node)
	}
	// A metric registered midway yields a series only from then on —
	// earlier samples are skipped, not zero-filled.
	r.Counter("gossip.rx.total").Add(9)
	h.Record()
	late := HistoryDump{Samples: h.Samples()}.Series("gossip.rx.total")
	if len(late) != 1 || late[0].Value != 9 {
		t.Fatalf("late-registered series = %+v, want the one sample that has it", late)
	}
}

func TestHistoryRingWraps(t *testing.T) {
	r := enabled(t)
	g := r.Gauge("v")
	h := historyAt(r, time.Unix(1000, 0), time.Second, 4)
	for i := 0; i < 10; i++ {
		g.Set(float64(i))
		h.Record()
	}
	samples := h.Samples()
	if len(samples) != 4 {
		t.Fatalf("wrapped ring holds %d, want 4", len(samples))
	}
	// Oldest retained sample is i=6, newest i=9.
	first, _ := samples[0].Get("v")
	last, _ := samples[3].Get("v")
	if first.Value != 6 || last.Value != 9 {
		t.Fatalf("ring kept [%v..%v], want [6..9]", first.Value, last.Value)
	}
}

func TestHistoryWindow(t *testing.T) {
	r := enabled(t)
	r.Gauge("v").Set(1)
	clock := &fakeClock{t: time.Unix(1000, 0), step: time.Second}
	h := NewHistory(r, time.Second, 32)
	h.now = clock.now
	for i := 0; i < 10; i++ {
		h.Record()
	}
	// Clock is now at t=1010s; a 3.5s window cuts at 1006.5 and keeps the
	// samples stamped 1007..1010 — but Window() itself advances the fake
	// clock once, so cut = 1011-3.5 = 1007.5, keeping 1008..1010.
	got := h.Window(3500 * time.Millisecond)
	if len(got) != 3 {
		t.Fatalf("window = %d samples, want 3", len(got))
	}
	if all := h.Window(0); len(all) != 10 {
		t.Fatalf("zero window = %d samples, want all 10", len(all))
	}
}

func TestHistoryDumpJSONRoundTrip(t *testing.T) {
	r := enabled(t)
	r.SetNode("node-a")
	r.Gauge("depth").Set(7)
	r.Histogram("lat", nil).Observe(0.5)
	h := historyAt(r, time.Unix(1000, 0), time.Second, 8)
	h.Record()
	h.Record()

	raw, err := json.Marshal(h.Dump(0))
	if err != nil {
		t.Fatal(err)
	}
	var d HistoryDump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if d.Node != "node-a" || d.Capacity != 8 || d.IntervalNS != int64(time.Second) {
		t.Fatalf("dump header %+v", d)
	}
	if len(d.Samples) != 2 {
		t.Fatalf("samples = %d", len(d.Samples))
	}
	if m, ok := d.Samples[0].Get("depth"); !ok || m.Value != 7 {
		t.Fatalf("depth metric lost in round trip: %+v ok=%v", m, ok)
	}
}

func TestHistoryEmptyDumpSerializesEmptyArray(t *testing.T) {
	h := NewHistory(enabled(t), time.Second, 4)
	raw, err := json.Marshal(h.Dump(0))
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Samples []HistorySample `json:"samples"`
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if d.Samples == nil {
		t.Fatalf("samples serialized as null: %s", raw)
	}
}

func TestHistoryStartStop(t *testing.T) {
	r := enabled(t)
	r.Gauge("v").Set(1)
	h := NewHistory(r, time.Millisecond, 64)
	h.Start()
	h.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for len(h.Samples()) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	h.Stop()
	h.Stop() // idempotent
	n := len(h.Samples())
	if n < 3 {
		t.Fatalf("ticker recorded %d samples, want >= 3", n)
	}
	time.Sleep(5 * time.Millisecond)
	if got := len(h.Samples()); got != n {
		t.Fatalf("history kept recording after Stop: %d -> %d", n, got)
	}
}

func TestEnableHistoryDefault(t *testing.T) {
	defer DisableHistory()
	h := EnableHistory(time.Millisecond, 16)
	if DefaultHistory() != h {
		t.Fatal("DefaultHistory did not return the enabled ring")
	}
	h2 := EnableHistory(time.Millisecond, 32)
	if DefaultHistory() != h2 || h2 == h {
		t.Fatal("re-enable did not swap the default ring")
	}
	DisableHistory()
	if DefaultHistory() != nil {
		t.Fatal("DisableHistory left a default ring")
	}
}

func TestSeriesHistogramUsesP99(t *testing.T) {
	r := enabled(t)
	r.SetNode("n")
	hist := r.Histogram("lat", []float64{0.001, 0.01, 0.1, 1})
	for i := 0; i < 100; i++ {
		hist.Observe(0.005)
	}
	h := historyAt(r, time.Unix(100, 0), time.Second, 8)
	h.Record()
	s := HistoryDump{Samples: h.Samples()}.Series("lat")
	if len(s) != 1 || s[0].Count != 100 {
		t.Fatalf("histogram series = %+v", s)
	}
	if s[0].Value <= 0 {
		t.Fatalf("histogram series value (p99) = %v", s[0].Value)
	}
}

// BenchmarkHistoryRecord prices one history tick on a realistically
// sized registry (100 counters/gauges + 20 histograms). At the default
// 250ms interval the sampler pays this cost 4×/s; the per-tick figure
// bounds the steady-state overhead on any foreground workload — e.g.
// 100µs/tick × 4/s = 0.04% of one core.
func BenchmarkHistoryRecord(b *testing.B) {
	r := New()
	r.SetEnabled(true)
	for i := 0; i < 50; i++ {
		r.Counter(fmt.Sprintf("bench.counter_%02d_total", i)).Inc()
		r.Gauge(fmt.Sprintf("bench.gauge_%02d", i)).Set(float64(i))
	}
	for i := 0; i < 20; i++ {
		h := r.Histogram(fmt.Sprintf("bench.hist_%02d_seconds", i), TimeBuckets)
		for j := 0; j < 100; j++ {
			h.Observe(float64(j) * 1e-4)
		}
	}
	h := NewHistory(r, time.Second, DefaultHistoryCapacity)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record()
	}
}
