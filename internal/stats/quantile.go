package stats

import "sort"

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks (the same convention as numpy's
// default, which the paper's analysis scripts use). It returns 0 for an
// empty slice. The input is not mutated.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Quantiles evaluates several quantiles with a single sort. The returned
// slice is parallel to qs.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}
