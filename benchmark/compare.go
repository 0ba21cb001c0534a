package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Verdicts of one end-to-end metric on one workload.
const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// side is one side of a comparison: the runs of its summaries, grouped.
type side struct {
	untraced, traced map[string][]*result // by workload
}

func loadSide(paths []string) (*side, error) {
	s := &side{untraced: make(map[string][]*result), traced: make(map[string][]*result)}
	for _, p := range paths {
		sum, err := readSummary(p)
		if err != nil {
			return nil, err
		}
		for _, r := range sum.Runs {
			if r.Traced {
				s.traced[r.Workload] = append(s.traced[r.Workload], r)
			} else {
				s.untraced[r.Workload] = append(s.untraced[r.Workload], r)
			}
		}
	}
	return s, nil
}

func values(runs []*result, metric string) samples {
	out := make(samples, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Metrics[metric])
	}
	return out
}

// failedShare is failed ops over attempted ops across the runs.
func failedShare(runs []*result) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// judge compares B against A on one end-to-end metric. The run-to-run
// spread is the interquartile distance as a share of the median; where
// either side's spread exceeds the bound the metric is unresolved,
// unless every run of one side beats every run of the other.
func judge(d metricDef, a, b samples) string {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if ma == 0 {
		return verdictUnresolved
	}
	sign := 1.0 // positive worsening means B is worse
	if d.better == "higher" {
		sign = -1
	}
	worsening := sign * (mb - ma) / ma
	sa, sb := a.sorted(), b.sorted()
	// Every run of B better (worse) than every run of A.
	allBetter := sb[len(sb)-1] < sa[0]
	allWorse := sb[0] > sa[len(sa)-1]
	if d.better == "higher" {
		allBetter, allWorse = sb[0] > sa[len(sa)-1], sb[len(sb)-1] < sa[0]
	}
	if spread(a) > d.bound || spread(b) > d.bound {
		switch {
		case allBetter:
			return verdictBetter
		case allWorse && worsening > d.bound:
			return verdictWorse
		}
		return verdictUnresolved
	}
	q1, _, q3 := quartiles(a)
	switch {
	case worsening > d.bound:
		return verdictWorse
	case worsening < 0 && sign*(ma-mb) > q3-q1:
		return verdictBetter
	}
	return verdictWithin
}

// compareSides prints, per workload, one row per end-to-end metric and
// the per-layer movement, and returns whether anything regressed.
func compareSides(w io.Writer, a, b *side) (regressed bool) {
	for _, wl := range workloadNames {
		ra, rb := a.untraced[wl], b.untraced[wl]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s (A: %d runs, B: %d runs)\n", wl, len(ra), len(rb))
		fmt.Fprintf(w, "  %-20s %12s %25s %12s %25s %6s  %s\n",
			"metric", "A median", "A q1..q3", "B median", "B q1..q3", "bound", "verdict")
		for _, d := range endToEndMetrics {
			va, vb := values(ra, d.name), values(rb, d.name)
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			v := judge(d, va, vb)
			if v == verdictWorse {
				regressed = true
			}
			fmt.Fprintf(w, "  %-20s %12.4f %25s %12.4f %25s %5.0f%%  %s\n", d.name,
				a2, fmt.Sprintf("%.4f..%.4f", a1, a3), b2, fmt.Sprintf("%.4f..%.4f", b1, b3), d.bound*100, v)
		}
		fa, fb := failedShare(ra), failedShare(rb)
		fmt.Fprintf(w, "  failed-op share: A %.6f, B %.6f\n", fa, fb)
		if fb > fa {
			fmt.Fprintf(w, "  REGRESSION: B fails a higher share of its ops\n")
			regressed = true
		}
		layerMovement(w, a.traced[wl], b.traced[wl])
		if len(a.traced[wl]) > 0 && len(b.traced[wl]) > 0 {
			fmt.Fprintf(w, "  trace.overhead_pct: A %.2f, B %.2f\n",
				overheadPct(wl, ra, a.traced[wl]), overheadPct(wl, rb, b.traced[wl]))
		}
		fmt.Fprintln(w)
	}
	return regressed
}

// layerMovement prints how the traced runs' per-layer numbers moved:
// the four commit stages as shares of their sum, then every per-layer
// metric that either side reports.
func layerMovement(w io.Writer, ta, tb []*result) {
	if len(ta) == 0 || len(tb) == 0 {
		return
	}
	med := func(runs []*result, name string) float64 { return median(values(runs, name)) }
	stages := []string{"stage.admit_ms_mean", "stage.queue_ms_mean", "stage.seal_ms_mean", "stage.visible_ms_mean"}
	var sumA, sumB float64
	for _, s := range stages {
		sumA += med(ta, s)
		sumB += med(tb, s)
	}
	if sumA > 0 && sumB > 0 {
		fmt.Fprintf(w, "  commit-stage shares (of due→visible):\n")
		for _, s := range stages {
			fmt.Fprintf(w, "    %-38s %5.1f%% → %5.1f%%\n", s, med(ta, s)/sumA*100, med(tb, s)/sumB*100)
		}
	}
	fmt.Fprintf(w, "  per-layer medians (traced runs):\n")
	for _, d := range perLayerMetrics {
		va, vb := med(ta, d.name), med(tb, d.name)
		if va == 0 && vb == 0 {
			continue
		}
		change := "n/a"
		if va != 0 {
			change = fmt.Sprintf("%+.1f%%", (vb-va)/va*100)
		}
		fmt.Fprintf(w, "    %-38s %14.4f → %14.4f %-6s %s\n", d.name, va, vb, d.unit, change)
	}
}

// compareMain is `benchmark compare A... -- B...`. Exit code 1 on any
// "worse" verdict or a higher failed-op share, 2 on bad usage.
func compareMain(args []string) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
		}
	}
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare <A.json...> -- <B.json...>")
		return 2
	}
	a, err := loadSide(args[:sep])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	b, err := loadSide(args[sep+1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	names := func(m map[string][]*result) string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return strings.Join(out, ", ")
	}
	fmt.Printf("A: %s   B: %s\n\n", names(a.untraced), names(b.untraced))
	if compareSides(os.Stdout, a, b) {
		fmt.Println("RESULT: regression")
		return 1
	}
	fmt.Println("RESULT: no regression")
	return 0
}

// spreadMain is `benchmark spread <summary.json...>`: per workload and
// end-to-end metric, the run-to-run spread of the untraced runs in the
// given summaries (interquartile distance over median, as the driver
// computes it) next to the metric's bound. Exit code 1 when a spread
// exceeds its bound.
func spreadMain(paths []string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark spread <summary.json...>")
		return 2
	}
	s, err := loadSide(paths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark spread:", err)
		return 2
	}
	code := 0
	for _, wl := range workloadNames {
		runs := s.untraced[wl]
		if len(runs) == 0 {
			continue
		}
		fmt.Printf("%s (%d runs)\n", wl, len(runs))
		for _, d := range endToEndMetrics {
			v := values(runs, d.name)
			q1, q2, q3 := quartiles(v)
			sp := spread(v)
			note := ""
			switch {
			case sp > d.bound && d.name != "setup_s":
				note, code = "EXCEEDS BOUND", 1
			case sp > d.bound/3:
				note = "above a third of the bound"
			}
			fmt.Printf("  %-20s median %12.4f  q1..q3 %12.4f..%-12.4f spread %6.2f%%  bound %3.0f%%  %s\n",
				d.name, q2, q1, q3, sp*100, d.bound*100, note)
		}
	}
	return code
}
