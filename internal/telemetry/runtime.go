package telemetry

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Runtime gauge names. The sampler owns these; everything else (the
// loadgen report, the diag bundle, dashboards) reads them by name out
// of snapshots and the metrics history.
const (
	MetricHeapInuse      = "runtime.mem.heap_inuse_bytes"
	MetricHeapAlloc      = "runtime.mem.heap_alloc_bytes"
	MetricHeapSys        = "runtime.mem.heap_sys_bytes"
	MetricHeapInusePeak  = "runtime.mem.heap_inuse_peak_bytes"
	MetricTotalAlloc     = "runtime.mem.total_alloc_bytes"
	MetricGoroutines     = "runtime.goroutines"
	MetricGoroutinesPeak = "runtime.goroutines_peak"
	MetricGOMAXPROCS     = "runtime.gomaxprocs"
	MetricGCCycles       = "runtime.gc.cycles"
	MetricGCPauseP50     = "runtime.gc.pause_p50_seconds"
	MetricGCPauseP99     = "runtime.gc.pause_p99_seconds"
	MetricGCPauseMax     = "runtime.gc.pause_max_seconds"
	MetricSchedLatP50    = "runtime.sched.latency_p50_seconds"
	MetricSchedLatP99    = "runtime.sched.latency_p99_seconds"
)

// gcPauseMetrics and schedLatencyMetrics are the runtime/metrics
// histogram names sampled for pause and scheduler-latency quantiles, in
// preference order — the first one the runtime knows wins, so the
// sampler survives the go1.22 rename of /gc/pauses:seconds.
var (
	gcPauseMetrics      = []string{"/sched/pauses/total/gc:seconds", "/gc/pauses:seconds"}
	schedLatencyMetrics = []string{"/sched/latencies:seconds"}
)

// RuntimeSampler periodically folds Go runtime health — heap occupancy,
// GC pause quantiles, goroutine counts, scheduler latency — into a
// registry's gauges, which is what makes "what was the GC doing during
// that chaos run" answerable from the metrics history after the fact.
// One sampler samples one registry; Stop is idempotent.
type RuntimeSampler struct {
	r        *Registry
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}

	samples    []metrics.Sample
	gcPauseIdx int // index into samples, -1 if unsupported
	schedIdx   int

	gHeapInuse     *Gauge
	gHeapAlloc     *Gauge
	gHeapSys       *Gauge
	gHeapPeak      *Gauge
	gTotalAlloc    *Gauge
	gGoroutines    *Gauge
	gGoroutinePeak *Gauge
	gGOMAXPROCS    *Gauge
	gGCCycles      *Gauge
	gGCPauseP50    *Gauge
	gGCPauseP99    *Gauge
	gGCPauseMax    *Gauge
	gSchedP50      *Gauge
	gSchedP99      *Gauge
}

// DefaultRuntimeSampleInterval is how often the runtime sampler reads
// the Go runtime when the caller passes no interval. ReadMemStats
// stops the world for microseconds, so second-granularity is the
// sweet spot between resolution and perturbation.
const DefaultRuntimeSampleInterval = time.Second

// NewRuntimeSampler builds a sampler against r without starting it.
// interval <= 0 selects DefaultRuntimeSampleInterval.
func NewRuntimeSampler(r *Registry, interval time.Duration) *RuntimeSampler {
	if interval <= 0 {
		interval = DefaultRuntimeSampleInterval
	}
	s := &RuntimeSampler{
		r:              r,
		interval:       interval,
		gHeapInuse:     r.Gauge(MetricHeapInuse),
		gHeapAlloc:     r.Gauge(MetricHeapAlloc),
		gHeapSys:       r.Gauge(MetricHeapSys),
		gHeapPeak:      r.Gauge(MetricHeapInusePeak),
		gTotalAlloc:    r.Gauge(MetricTotalAlloc),
		gGoroutines:    r.Gauge(MetricGoroutines),
		gGoroutinePeak: r.Gauge(MetricGoroutinesPeak),
		gGOMAXPROCS:    r.Gauge(MetricGOMAXPROCS),
		gGCCycles:      r.Gauge(MetricGCCycles),
		gGCPauseP50:    r.Gauge(MetricGCPauseP50),
		gGCPauseP99:    r.Gauge(MetricGCPauseP99),
		gGCPauseMax:    r.Gauge(MetricGCPauseMax),
		gSchedP50:      r.Gauge(MetricSchedLatP50),
		gSchedP99:      r.Gauge(MetricSchedLatP99),
	}
	s.gcPauseIdx = s.addSample(gcPauseMetrics)
	s.schedIdx = s.addSample(schedLatencyMetrics)
	return s
}

// addSample registers the first supported metric of the candidate list
// with the sample batch, returning its index or -1.
func (s *RuntimeSampler) addSample(candidates []string) int {
	supported := map[string]bool{}
	for _, d := range metrics.All() {
		supported[d.Name] = true
	}
	for _, name := range candidates {
		if supported[name] {
			s.samples = append(s.samples, metrics.Sample{Name: name})
			return len(s.samples) - 1
		}
	}
	return -1
}

// StartRuntimeSampler builds a sampler against r, takes one immediate
// sample, and keeps sampling every interval until Stop.
func StartRuntimeSampler(r *Registry, interval time.Duration) *RuntimeSampler {
	s := NewRuntimeSampler(r, interval)
	s.Sample()
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		tick := time.NewTicker(s.interval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.Sample()
			}
		}
	}()
	return s
}

// Stop halts the background sampling goroutine and waits for it to
// exit. Safe to call more than once; a never-started sampler ignores it.
func (s *RuntimeSampler) Stop() {
	if s.stop == nil {
		return
	}
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}

// Sample reads the Go runtime once and stores the result in the
// registry's gauges. Peaks (heap in-use, goroutines) are monotone over
// the sampler's lifetime — a registry Reset restarts them.
func (s *RuntimeSampler) Sample() {
	if !s.r.Enabled() {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.gHeapInuse.Set(float64(ms.HeapInuse))
	s.gHeapAlloc.Set(float64(ms.HeapAlloc))
	s.gHeapSys.Set(float64(ms.HeapSys))
	s.gTotalAlloc.Set(float64(ms.TotalAlloc))
	s.gGCCycles.Set(float64(ms.NumGC))
	if f := float64(ms.HeapInuse); f > s.gHeapPeak.Value() {
		s.gHeapPeak.Set(f)
	}
	n := float64(runtime.NumGoroutine())
	s.gGoroutines.Set(n)
	if n > s.gGoroutinePeak.Value() {
		s.gGoroutinePeak.Set(n)
	}
	s.gGOMAXPROCS.Set(float64(runtime.GOMAXPROCS(0)))

	if len(s.samples) > 0 {
		metrics.Read(s.samples)
		if s.gcPauseIdx >= 0 {
			if h := histOf(&s.samples[s.gcPauseIdx]); h != nil {
				s.gGCPauseP50.Set(histQuantile(h, 0.50))
				s.gGCPauseP99.Set(histQuantile(h, 0.99))
				s.gGCPauseMax.Set(histMax(h))
			}
		}
		if s.schedIdx >= 0 {
			if h := histOf(&s.samples[s.schedIdx]); h != nil {
				s.gSchedP50.Set(histQuantile(h, 0.50))
				s.gSchedP99.Set(histQuantile(h, 0.99))
			}
		}
	}
}

// histOf extracts a runtime/metrics float64 histogram, nil otherwise.
func histOf(s *metrics.Sample) *metrics.Float64Histogram {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return s.Value.Float64Histogram()
}

// histQuantile computes q over a runtime/metrics cumulative-lifetime
// histogram (len(Buckets) == len(Counts)+1), attributing each bucket's
// count to its upper bound — conservative for tail quantiles.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range h.Counts {
		cum += float64(c)
		if cum >= rank {
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) { // +Inf tail: fall back to the bucket floor
				hi = h.Buckets[i]
			}
			return hi
		}
	}
	last := h.Buckets[len(h.Buckets)-1]
	if math.IsInf(last, 1) {
		last = h.Buckets[len(h.Buckets)-2]
	}
	return last
}

// histMax returns the upper bound of the highest non-empty bucket.
func histMax(h *metrics.Float64Histogram) float64 {
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] == 0 {
			continue
		}
		hi := h.Buckets[i+1]
		if math.IsInf(hi, 1) {
			hi = h.Buckets[i]
		}
		return hi
	}
	return 0
}

// --- Profiling control ---

// profileRates remembers what SetProfileRates installed, because the Go
// runtime exposes no getter for the block profile rate.
var profileRates struct {
	mu          sync.Mutex
	mutexFrac   int
	blockRateNS int
}

// SetProfileRates installs runtime contention-profiling rates:
// mutexFraction is the 1/n sampling rate for mutex contention events
// (0 disables, 1 records everything), blockRateNS is the blocking
// threshold in nanoseconds for the block profile (0 disables, 1 records
// everything). Both default to off because they tax the hot paths;
// pds2-node exposes them as flags and `pds2 diag` reads the resulting
// profiles into the bundle.
func SetProfileRates(mutexFraction, blockRateNS int) {
	profileRates.mu.Lock()
	defer profileRates.mu.Unlock()
	runtime.SetMutexProfileFraction(mutexFraction)
	runtime.SetBlockProfileRate(blockRateNS)
	profileRates.mutexFrac = mutexFraction
	profileRates.blockRateNS = blockRateNS
}

// ProfileRates reports the rates last installed via SetProfileRates.
func ProfileRates() (mutexFraction, blockRateNS int) {
	profileRates.mu.Lock()
	defer profileRates.mu.Unlock()
	return profileRates.mutexFrac, profileRates.blockRateNS
}

// --- Build info ---

// BuildInfo pins a measurement to the binary and machine that produced
// it, so a LOAD_*.json report or diag bundle from last month is
// attributable: which commit, which Go, which host, how many cores.
type BuildInfo struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Hostname   string `json:"hostname,omitempty"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitCommit  string `json:"git_commit,omitempty"`
	GitDirty   bool   `json:"git_dirty,omitempty"`
}

// CollectBuildInfo reads the current process's build identity. The git
// commit comes from the module build info (-buildvcs, the default for
// `go build` in a repo) and is empty for `go test` binaries and
// vcs-stripped builds.
func CollectBuildInfo() BuildInfo {
	bi := BuildInfo{
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if host, err := os.Hostname(); err == nil {
		bi.Hostname = host
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		settings := make(map[string]string, len(info.Settings))
		for _, s := range info.Settings {
			settings[s.Key] = s.Value
		}
		bi.GitCommit = settings["vcs.revision"]
		bi.GitDirty = settings["vcs.modified"] == "true"
	}
	return bi
}

// sortedRuntimeMetricNames returns every runtime.* gauge name the
// sampler maintains — the diag bundle lists them so postmortems know
// which series to expect in the history.
func sortedRuntimeMetricNames() []string {
	names := []string{
		MetricHeapInuse, MetricHeapAlloc, MetricHeapSys, MetricHeapInusePeak,
		MetricTotalAlloc, MetricGoroutines, MetricGoroutinesPeak, MetricGOMAXPROCS,
		MetricGCCycles, MetricGCPauseP50, MetricGCPauseP99, MetricGCPauseMax,
		MetricSchedLatP50, MetricSchedLatP99,
	}
	sort.Strings(names)
	return names
}
