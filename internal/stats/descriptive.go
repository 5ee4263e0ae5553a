// Package stats provides the statistics substrate used throughout the SPES
// reproduction: descriptive statistics, quantiles, modes, histograms, and a
// seeded random source.
//
// All functions operate on plain slices and never mutate their inputs unless
// explicitly documented. Empty inputs yield zero values rather than panics so
// that callers handling sparse invocation data do not need to special-case
// every infrequently invoked function.
package stats

import "math"

// number is what the descriptive statistics accept: float64 samples, or int
// samples converted element by element as they are read. Each statistic has
// one generic body, so its int-fed form performs exactly the float form's
// operations in the float form's order — bit-identical to converting with
// IntsToFloats first, without the copy.
type number interface{ int | float64 }

func sumOf[T number](xs []T) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s
}

func meanOf[T number](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sumOf(xs) / float64(len(xs))
}

func varianceOf[T number](xs []T) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := meanOf(xs)
	var ss float64
	for _, x := range xs {
		d := float64(x) - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

func cvOf[T number](xs []T) float64 {
	m := meanOf(xs)
	sd := math.Sqrt(varianceOf(xs))
	if m == 0 {
		if sd == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return sd / m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 { return sumOf(xs) }

// SumInts returns the sum of xs as an int64 to avoid overflow on long traces.
func SumInts(xs []int) int64 {
	var s int64
	for _, x := range xs {
		s += int64(x)
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 { return meanOf(xs) }

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(varianceOf(xs)) }

// StdDevInts is StdDev(IntsToFloats(xs)), bit for bit, without the copy.
func StdDevInts(xs []int) float64 { return math.Sqrt(varianceOf(xs)) }

// CoefficientOfVariationInts returns StdDev(xs)/Mean(xs), computed on
// IntsToFloats(xs) bit for bit, without the copy.
//
// The coefficient of variation (CV) is the dispersion measure SPES uses to
// decide whether a waiting-time sequence is close enough to constant to call
// the function "regular" (CV <= 0.01 in the paper). A zero mean yields 0 when
// the sequence is all zeros (no dispersion) and +Inf otherwise.
func CoefficientOfVariationInts(xs []int) float64 { return cvOf(xs) }

// MinMax returns the minimum and maximum of xs. It returns (0, 0) for an
// empty slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// MinMaxInts returns the minimum and maximum of xs. It returns (0, 0) for an
// empty slice.
func MinMaxInts(xs []int) (min, max int) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// IntsToFloats converts an int slice to a freshly allocated float64 slice.
func IntsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
