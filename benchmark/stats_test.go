package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4), which the driver uses.
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{10, 20}, 15, 7.5, 22.5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("spread = %v, want (4.5-1.5)/3 = 1", got)
	}
	if median(nil) != 0 || spread(nil) != 0 {
		t.Error("empty input must give 0")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for q, want := range map[float64]float64{0.5: 50, 0.99: 99, 1: 100, 0: 1} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{
		50:    0.5,   // p90 would rest on 5 samples
		180:   0.9,   // serve-bulk's requests: p99 would rest on 1.8
		2880:  0.99,  // serve-slot's requests: 28.8 beyond p99, 2.9 beyond p99.9
		5760:  0.99,  // the issue's size: 57.6 beyond p99, 5.8 beyond p99.9
		10000: 0.999, // exactly ten beyond
	} {
		if got := tailQuantile(n); math.Abs(got-want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}
