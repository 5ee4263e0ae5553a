package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-width binned counter over the half-open range
// [Min, Min+BinWidth*len(Counts)). Values outside the range are tallied in
// UnderflowCount/OverflowCount rather than dropped, because the Hybrid
// baseline's "out of bounds" fraction drives its fallback decision.
//
// The histogram maintains incremental summaries alongside the raw counts —
// the in-range total, a Fenwick (binary indexed) tree of cumulative counts,
// and the first two integer moments of the bin indices — so Total and CV are
// O(1) and Percentile is O(log bins) instead of a full rescan. Policies call
// these on every observation (the Hybrid windows rule), which made the scans
// the dominant per-Tick cost at scale. Counts must therefore only be mutated
// through Add; it stays exported for read access.
type Histogram struct {
	Min            float64
	BinWidth       float64
	Counts         []int64
	UnderflowCount int64
	OverflowCount  int64

	total    int64   // in-range observations (sum of Counts)
	fen      []int64 // 1-indexed Fenwick tree over Counts (fen[0] unused)
	fenTop   int     // largest power of two <= len(Counts)
	sumIdx   int64   // sum of bin indices over in-range observations
	sumIdxSq int64   // sum of squared bin indices
}

// NewHistogram creates a histogram with bins bins of width binWidth starting
// at min. It panics on a non-positive bin count or width: histograms are
// always constructed from compile-time policy parameters, so a bad value is
// a programming error, not a data error.
func NewHistogram(min, binWidth float64, bins int) *Histogram {
	if bins <= 0 {
		panic(fmt.Sprintf("stats: histogram bins must be positive, got %d", bins))
	}
	if binWidth <= 0 {
		panic(fmt.Sprintf("stats: histogram bin width must be positive, got %g", binWidth))
	}
	top := 1
	for top<<1 <= bins {
		top <<= 1
	}
	return &Histogram{
		Min:      min,
		BinWidth: binWidth,
		Counts:   make([]int64, bins),
		fen:      make([]int64, bins+1),
		fenTop:   top,
	}
}

// Add tallies one observation.
func (h *Histogram) Add(x float64) {
	if x < h.Min {
		h.UnderflowCount++
		return
	}
	bin := int((x - h.Min) / h.BinWidth)
	if bin >= len(h.Counts) {
		h.OverflowCount++
		return
	}
	h.Counts[bin]++
	h.total++
	h.sumIdx += int64(bin)
	h.sumIdxSq += int64(bin) * int64(bin)
	for i := bin + 1; i <= len(h.Counts); i += i & (-i) {
		h.fen[i]++
	}
}

// Total returns the number of in-range observations.
func (h *Histogram) Total() int64 { return h.total }

// TotalWithOOB returns all observations including out-of-bounds ones.
func (h *Histogram) TotalWithOOB() int64 {
	return h.total + h.UnderflowCount + h.OverflowCount
}

// OOBFraction returns the fraction of observations that fell outside the
// histogram range, or 0 when nothing has been observed.
func (h *Histogram) OOBFraction() float64 {
	total := h.TotalWithOOB()
	if total == 0 {
		return 0
	}
	return float64(h.UnderflowCount+h.OverflowCount) / float64(total)
}

// BinLow returns the inclusive lower edge of bin i.
func (h *Histogram) BinLow(i int) float64 {
	return h.Min + float64(i)*h.BinWidth
}

// Percentile returns the lower edge of the first bin at which the cumulative
// in-range mass reaches p (0 < p <= 1). The Hybrid policy reads its pre-warm
// (5th percentile) and keep-alive (99th percentile) windows this way. ok is
// false when the histogram holds no in-range observations.
//
// The Fenwick prefix search selects exactly the bin a linear cumulative scan
// would (the target and the >= comparison are integer arithmetic), so the
// speedup cannot shift a policy decision.
func (h *Histogram) Percentile(p float64) (float64, bool) {
	if h.total == 0 {
		return 0, false
	}
	target := int64(math.Ceil(p * float64(h.total)))
	if target < 1 {
		target = 1
	}
	// Standard Fenwick descent: pos ends at the largest index whose prefix
	// sum is still below target, so pos (0-based) is the first bin at which
	// the cumulative count reaches it.
	pos := 0
	for k := h.fenTop; k > 0; k >>= 1 {
		if next := pos + k; next <= len(h.Counts) && h.fen[next] < target {
			pos = next
			target -= h.fen[next]
		}
	}
	if pos >= len(h.Counts) {
		pos = len(h.Counts) - 1
	}
	return h.BinLow(pos), true
}

// CV returns the coefficient of variation of the binned distribution, using
// bin centers as representative values. The Hybrid policy uses this to judge
// whether a function's idle-time distribution is "representative" enough to
// drive the histogram strategy. ok is false with no in-range observations.
//
// It is computed from the maintained integer moments of the bin indices:
// with N observations, S1 = sum(i), S2 = sum(i^2), the variance over bin
// centers is BinWidth^2 * (N*S2 - S1^2) / N^2 — exact integer arithmetic up
// to the final float conversion, and independent of bin iteration order.
func (h *Histogram) CV() (float64, bool) {
	if h.total == 0 {
		return 0, false
	}
	n := float64(h.total)
	mean := h.Min + (float64(h.sumIdx)/n+0.5)*h.BinWidth
	num := n*float64(h.sumIdxSq) - float64(h.sumIdx)*float64(h.sumIdx)
	if num < 0 {
		num = 0 // guard float rounding on huge moment values
	}
	sd := h.BinWidth * math.Sqrt(num) / n
	if mean == 0 {
		if sd == 0 {
			return 0, true
		}
		return math.Inf(1), true
	}
	return sd / mean, true
}

// CountBuckets builds the log-scale bucket counts used to reproduce the
// paper's Figure 3 (invocation imbalance): bucket i counts how many inputs
// fall in [10^i, 10^(i+1)). Inputs of zero are counted in a dedicated first
// bucket. The returned slice has maxExp+2 entries: [zeros, 10^0..10^1, ...].
func CountBuckets(totals []int64, maxExp int) []int64 {
	out := make([]int64, maxExp+2)
	for _, t := range totals {
		if t <= 0 {
			out[0]++
			continue
		}
		exp := int(math.Log10(float64(t)))
		if exp > maxExp {
			exp = maxExp
		}
		out[exp+1]++
	}
	return out
}
