package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// median is stats.Median: the middle value, the mean of the middle two for
// an even count, 0 for an empty slice.
func median(xs []float64) float64 { return stats.Median(xs) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so a
// spread computed here is the spread the benchmark driver computes. Fewer
// than two samples have no spread: both quartiles are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	m := len(xs)
	if m < 2 {
		return median(xs), median(xs)
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median, the
// steadiness measure the bounds in BENCHMARK.json are compared against.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}

// percentile returns the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailQuantile returns the highest of the customary tail quantiles that
// still has at least ten of n samples beyond it; a percentile resting on
// fewer is one or two outliers, not a measurement.
func tailQuantile(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.9, 0.99, 0.999, 0.9999} {
		if float64(n)*(1-q) >= 10 {
			best = q
		}
	}
	return best
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
