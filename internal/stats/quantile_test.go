package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQuantile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 15},
		{1, 50},
		{0.5, 35},
		{0.25, 20},
		{0.75, 40},
		{0.4, 29}, // interpolated: pos=1.6 -> 20*0.4 + 35*0.6
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %v, want 0", got)
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("Quantile singleton = %v, want 7", got)
	}
	if got := Quantile([]float64{1, 2}, -0.5); got != 1 {
		t.Errorf("Quantile(q<0) = %v, want min", got)
	}
	if got := Quantile([]float64{1, 2}, 1.5); got != 2 {
		t.Errorf("Quantile(q>1) = %v, want max", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile mutated input: %v", xs)
	}
}

func TestQuantiles(t *testing.T) {
	got := Quantiles([]float64{1, 2, 3, 4, 5}, 0, 0.5, 1)
	want := []float64{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Quantiles[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	empty := Quantiles(nil, 0.5)
	if len(empty) != 1 || empty[0] != 0 {
		t.Errorf("Quantiles(nil) = %v", empty)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{1, 3, 2}); got != 2 {
		t.Errorf("Median odd = %v, want 2", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Median even = %v, want 2.5", got)
	}
	if got := MedianSortedInts([]int{10, 20, 30}); got != 20 {
		t.Errorf("MedianSortedInts = %v, want 20", got)
	}
}

// Property: quantile output is always within [min, max] and monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := raw[:0:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		lo := Quantile(xs, q1)
		hi := Quantile(xs, q2)
		min, max := MinMax(xs)
		return lo <= hi && lo >= min && hi <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
