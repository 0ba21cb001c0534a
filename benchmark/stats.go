package main

import (
	"math"
	"sort"
)

// samples is a set of measurements. Percentiles are exact: they sort
// every sample and pick by nearest rank, never from histogram buckets.
type samples []float64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an already sorted sample set, or 0 when it is empty.
func percentile(sorted samples, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// beyond counts the samples that lie strictly past the p-th percentile's
// rank — the evidence a percentile claim rests on.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailMinBeyond is how many samples must lie beyond a percentile before
// it is reported.
const tailMinBeyond = 10

// gatedTail is the percentile of the end-to-end tail slot. One stall of
// the host inside an 11 s phase delays 2–5 % of the phase's ops, and on
// the reference box such stalls hit 3–4 of every 20 runs: over twenty
// seeds of read_heavy, commit p99 read 346–396 ms in seventeen runs and
// 597, 751 and 755 ms in the other three, while p90 stayed within
// 320–370 ms. The traced run still reports p99 under the per-layer
// names.
const gatedTail = 90

// tail returns the highest percentile of the ladder 99, 95, 90, 75 that
// is no higher than top and has at least tailMinBeyond samples beyond
// it, and its value. With too few samples for any of them it falls back
// to the median.
func tail(sorted samples, top float64) (p, v float64) {
	for _, p := range []float64{99, 95, 90, 75} {
		if p <= top && beyond(len(sorted), p) >= tailMinBeyond {
			return p, percentile(sorted, p)
		}
	}
	return 50, percentile(sorted, 50)
}

// p99 returns the 99th percentile when enough samples support it and
// otherwise the highest percentile that is supported (see tail).
func p99(sorted samples) float64 {
	_, v := tail(sorted, 99)
	return v
}

func median(s samples) float64 { return percentile(s.sorted(), 50) }

func mean(s samples) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// quartiles returns Q1, Q2, Q3 by the exclusive method, the one
// Python's statistics.quantiles(values, n=4) uses — the driver judges
// run-to-run spread with it, so compare does too.
func quartiles(s samples) (q1, q2, q3 float64) {
	x := s.sorted()
	n := len(x)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return x[0], x[0], x[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4 // 1-based rank of the lower neighbour
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(s samples) float64 {
	q1, q2, q3 := quartiles(s)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
