package classify

import (
	"slices"

	"repro/internal/stats"
)

// scratch is one worker's reusable working memory for the offline pass.
// A Categorizer keeps one per worker across calls, indexed by trace.FanOut's
// worker index, so every item a worker takes reuses it: the per-function
// intermediates — extracted activity, sorted slack variants, frequency
// tables, pre-load spans — cost an allocation only when a function needs more room than any
// before it on that worker, in this call or an earlier one.
//
// Ownership rule: nothing reachable from a Profile may point into scratch.
// A buffer's contents are meaningless once the step that filled it returns
// (the next function overwrites them), so whatever escapes — Values, Links —
// is copied out into an exactly sized slice of its own.
type scratch struct {
	act    []int    // extractWindow: AT, AN and WT of the current window
	sorted [3][]int // categorizeActivity: ascending copy of each slack variant
	merged []int    // categorizeActivity: the merged slack variant
	hist   []int    // sortedInto: counting sort's histogram over [min, max]

	table []stats.ModeCount // frequency table of one sorted WT sequence

	// Forgetting rule: per-run metadata of the full window (extractMeta) and
	// the rebuilt AT/AN of a suffix whose first run straddles the cut.
	runStarts []int32
	runEvIdx  []int32
	prefixInv []int
	cutRuns   []int

	values   []int        // possible strategy: predictive values, frequency order
	ascend   []int        // scorePossible: the same values ascending
	accepted []scoredLink // mineLinks: candidates that cleared every gate
	lags     lagScanner   // mineLinks: the target's and one candidate's bitsets

	// seen deduplicates a target's candidates across its app and user peer
	// lists without a per-target map: a candidate is seen when its stamp
	// equals the current generation. Sized to the population on first use.
	seen    []uint32
	seenGen uint32
}

// span is an inclusive slot range a strategy holds the target pre-loaded for.
type span struct{ lo, hi int32 }

// scoredLink is a link candidate with the lagged COR it is ranked by.
type scoredLink struct {
	link Link
	cor  float64
}

// sized returns buf resliced to n elements with unspecified contents. A
// buffer too small is replaced by one at least twice its capacity, so the
// buffers a scratch outgrows add up to less than the one it ends with.
func sized[T any](buf []T, n int) []T {
	if n > cap(buf) {
		buf = make([]T, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// sortedInto fills dst with an ascending copy of xs, leaving xs untouched.
// When the values span a range small against their count — waiting times
// mostly do — it counting-sorts them through a histogram held in w;
// otherwise it copies and sorts. An int sort has one correct output, so the
// path taken changes no result.
func (w *scratch) sortedInto(dst, xs []int) []int {
	dst = sized(dst, len(xs))
	if len(xs) == 0 {
		return dst
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	spread := uint(hi) - uint(lo) // exact for any lo <= hi, even where hi-lo overflows int
	if !countingSortPays(len(xs), spread) {
		copy(dst, xs)
		slices.Sort(dst)
		return dst
	}
	w.hist = sized(w.hist, int(spread)+1)
	hist := w.hist
	clear(hist)
	for _, x := range xs {
		hist[x-lo]++
	}
	i := 0
	for v, c := range hist {
		for ; c > 0; c-- {
			dst[i] = lo + v
			i++
		}
	}
	return dst
}

// countingSortPays reports whether n values with max-min == spread sort
// faster through a histogram of spread+1 counters than by comparison: the
// histogram pass costs O(n + spread), pdqsort O(n log n). It reads nothing
// but the two sizes.
func countingSortPays(n int, spread uint) bool {
	return spread < 2*uint(n)
}

// withoutTwoInto fills dst with sorted minus one occurrence each of a and b
// (which must both be present), preserving order.
func withoutTwoInto(dst, sorted []int, a, b int) []int {
	if a > b {
		a, b = b, a
	}
	ia, _ := slices.BinarySearch(sorted, a)
	ib, _ := slices.BinarySearch(sorted[ia+1:], b)
	ib += ia + 1
	dst = sized(dst, len(sorted)-2)
	n := copy(dst, sorted[:ia])
	n += copy(dst[n:], sorted[ia+1:ib])
	copy(dst[n:], sorted[ib+1:])
	return dst
}
