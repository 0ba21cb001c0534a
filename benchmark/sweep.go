package main

import (
	"fmt"
	"os"
)

// sweepLadder steps the steady rate as multiples of the frozen one; the
// top rung lies past what the reference box sustains on every workload.
var sweepLadder = []float64{0.5, 1, 2, 4, 8, 12, 16, 24}

// Latency limits a step must meet: commit p99 for the write workloads,
// read p99 for read_heavy.
const (
	commitLimitMS = 1000
	readLimitMS   = 50
)

// sweepStep is one rung of the ladder on one workload.
type sweepStep struct {
	Workload   string  `json:"workload"`
	Rate       float64 `json:"rate_per_s"`
	P50MS      float64 `json:"p50_ms"`
	TailMS     float64 `json:"p99_ms"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	BacklogUp  bool    `json:"backlog_growing"`
	WithinSLO  bool    `json:"within_limit"`
	DepthFirst float64 `json:"mempool_depth_first_half"`
	DepthLast  float64 `json:"mempool_depth_second_half"`
}

// backlogGrowing compares the mean pool depth the sealer saw in the
// second half of the run with the first: an open loop past capacity
// shows as a queue that keeps growing.
func backlogGrowing(depths []int, perBlock float64) (first, second float64, growing bool) {
	half := len(depths) / 2
	if half == 0 {
		return 0, 0, false
	}
	avg := func(d []int) float64 {
		var sum float64
		for _, v := range d {
			sum += float64(v)
		}
		return sum / float64(len(d))
	}
	first, second = avg(depths[:half]), avg(depths[half:])
	return first, second, second > 1.5*first+perBlock
}

// sweepMain steps the steady rate of the chosen HTTP workloads (all
// three for -workload all) up the ladder until a step misses, and
// reports, per workload, latency at each step and the knee: the highest
// step that meets the latency limit with no failed op (a failure counts
// as a miss) and no growing backlog. Off-contract and not gated.
func sweepMain(cfg runConfig, out string) int {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = []string{wlTransfer, wlRead, wlMixed}
	}
	var steps []sweepStep
	for _, name := range names {
		base, ok := frozenHTTP[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: -sweep needs an HTTP workload, not %q\n", name)
			return 2
		}
		limit, p50, p99 := float64(commitLimitMS), "commit_p50_ms", "commit_p99_ms"
		if name == wlRead {
			limit, p50, p99 = readLimitMS, "read_p50_ms", "read_p99_ms"
		}
		fmt.Printf("%s: %s ≤ %.0f ms, %g s per step\n", name, p99, limit, cfg.seconds)
		knee := 0.0
		for _, mult := range sweepLadder {
			sc := base
			sc.steadyRate, sc.steadyFrac, sc.satCap = base.steadyRate*mult, 1, 0
			c := cfg
			c.workload, c.traced, c.httpScale, c.setupRepeats = name, false, &sc, 1
			res, err := runHTTP(c)
			if err != nil {
				return fail(err)
			}
			st := sweepStep{
				Workload: name, Rate: sc.steadyRate,
				P50MS: res.Metrics[p50], TailMS: res.Metrics[p99],
				Attempted: res.Attempted, Failed: res.Failed,
			}
			st.DepthFirst, st.DepthLast, st.BacklogUp = backlogGrowing(res.depths, sc.steadyRate*blockInterval.Seconds())
			st.WithinSLO = st.Failed == 0 && !st.BacklogUp && st.TailMS <= limit
			steps = append(steps, st)
			fmt.Printf("  %8.0f/s  p50 %9.2f ms  p99 %9.2f ms  failed %d/%d  backlog %.0f→%.0f  %s\n",
				st.Rate, st.P50MS, st.TailMS, st.Failed, st.Attempted, st.DepthFirst, st.DepthLast, verdictOf(st))
			if !st.WithinSLO {
				break
			}
			knee = st.Rate
		}
		fmt.Printf("  knee: %.0f ops/s\n", knee)
	}
	if out != "" {
		if err := writeSummary(out, &summary{Sweep: steps}); err != nil {
			return fail(err)
		}
	}
	return 0
}

func verdictOf(st sweepStep) string {
	if st.WithinSLO {
		return "ok"
	}
	return "MISS"
}
