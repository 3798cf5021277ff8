package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the figure is one outlier, not a tail.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-quantile (0 < p < 1, nearest rank) of xs, and
// false when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	return sorted(xs)[rank-1], true
}

// percentileOr0 is percentile for metric tables, where an unsupported
// percentile reads 0 like any other metric the run could not measure.
func percentileOr0(xs []float64, p float64) float64 {
	v, _ := percentile(xs, p)
	return v
}

// spread is the interquartile distance of xs as a share of its median — the
// run-to-run spread the bounds are judged against. Fewer than four values
// have no quartiles; their spread is the full range over the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	s := sorted(xs)
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / math.Abs(m)
	}
	q1, q3 := quartiles(s)
	return (q3 - q1) / math.Abs(m)
}

// quartiles of sorted s, by the exclusive method Python's
// statistics.quantiles(n=4) uses, so the figures match the driver's.
func quartiles(s []float64) (q1, q3 float64) {
	at := func(k int) float64 {
		n := len(s)
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
