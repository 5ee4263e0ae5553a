package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSum(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3.5}, 3.5},
		{"mixed signs", []float64{1, -2, 3}, 2},
		{"zeros", []float64{0, 0, 0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Sum(tt.in); got != tt.want {
				t.Errorf("Sum(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestSumInts(t *testing.T) {
	if got := SumInts([]int{1, 2, 3}); got != 6 {
		t.Errorf("SumInts = %d, want 6", got)
	}
	if got := SumInts(nil); got != 0 {
		t.Errorf("SumInts(nil) = %d, want 0", got)
	}
	// Large values must not overflow int32 arithmetic.
	big := []int{math.MaxInt32, math.MaxInt32}
	if got := SumInts(big); got != 2*int64(math.MaxInt32) {
		t.Errorf("SumInts overflow: got %d", got)
	}
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"constant", []float64{2, 2, 2}, 2},
		{"simple", []float64{1, 2, 3, 4}, 2.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); got != tt.want {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	if got := Variance([]float64{5}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
	// Population variance of (2,4,4,4,5,5,7,9) is 4.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if got := CoefficientOfVariation([]float64{3, 3, 3}); got != 0 {
		t.Errorf("CV of constant = %v, want 0", got)
	}
	if got := CoefficientOfVariation([]float64{0, 0}); got != 0 {
		t.Errorf("CV of zeros = %v, want 0", got)
	}
	if got := CoefficientOfVariation([]float64{-1, 1}); !math.IsInf(got, 1) {
		t.Errorf("CV with zero mean and spread = %v, want +Inf", got)
	}
	got := CoefficientOfVariation([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(got, 2.0/5.0, 1e-12) {
		t.Errorf("CV = %v, want 0.4", got)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax(nil)
	if min != 0 || max != 0 {
		t.Errorf("MinMax(nil) = (%v, %v), want (0, 0)", min, max)
	}
	min, max = MinMax([]float64{3, -1, 7, 0})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = (%v, %v), want (-1, 7)", min, max)
	}
	imin, imax := MinMaxInts([]int{5})
	if imin != 5 || imax != 5 {
		t.Errorf("MinMaxInts singleton = (%d, %d)", imin, imax)
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{10, 20, 30})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if !almostEqual(out[i], want[i], 1e-12) {
			t.Errorf("Normalize[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	constant := Normalize([]float64{4, 4})
	if constant[0] != 0 || constant[1] != 0 {
		t.Errorf("Normalize constant = %v, want zeros", constant)
	}
}

func TestIntsToFloats(t *testing.T) {
	out := IntsToFloats([]int{1, 2})
	if len(out) != 2 || out[0] != 1 || out[1] != 2 {
		t.Errorf("IntsToFloats = %v", out)
	}
}

// Property: the mean always lies within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		min, max := MinMax(clean)
		return m >= min-1e-6 && m <= max+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: variance is non-negative and zero for constant sequences.
func TestVarianceNonNegativeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		return Variance(clean) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: normalization output is always within [0, 1].
func TestNormalizeRangeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		for _, v := range Normalize(clean) {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIntFedStatisticsBitIdentical pins the int-fed forms to the float forms
// they replace in the categorizer: for any int sequence, feeding the ints
// directly yields the very bits that converting with IntsToFloats first
// does — same operations, same order — including where the sums round.
func TestIntFedStatisticsBitIdentical(t *testing.T) {
	rng := NewRNG(11)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for trial := 0; trial < 2000; trial++ {
		xs := make([]int, rng.Intn(60))
		scale := []int{3, 1440, 1 << 20, 1 << 52}[trial%4] // small WTs up to sums that round
		for i := range xs {
			xs[i] = rng.Intn(scale)
			if trial%5 == 0 {
				xs[i] -= scale / 2
			}
		}
		fs := IntsToFloats(xs)
		if got, want := StdDevInts(xs), StdDev(fs); !same(got, want) {
			t.Fatalf("StdDevInts(%v) = %v, StdDev(floats) = %v", xs, got, want)
		}
		if got, want := CoefficientOfVariationInts(xs), CoefficientOfVariation(fs); !same(got, want) {
			t.Fatalf("CoefficientOfVariationInts(%v) = %v, CoefficientOfVariation(floats) = %v", xs, got, want)
		}
		sorted := append([]int(nil), xs...)
		sort.Ints(sorted)
		if got, want := MedianSortedInts(sorted), Median(fs); !same(got, want) {
			t.Fatalf("MedianSortedInts(%v) = %v, Median(floats) = %v", sorted, got, want)
		}
	}
}
