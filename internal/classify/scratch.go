package classify

import (
	"slices"

	"repro/internal/stats"
)

// scratch is one worker's reusable working memory for the offline pass.
// A Categorizer keeps one per worker across calls and parallelDo hands the
// same one to every item a worker takes, so the per-function intermediates —
// extracted activity, sorted slack variants, frequency tables, pre-load
// spans — cost an allocation only when a function needs more room than any
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

	table []stats.ModeCount // frequency table of one sorted WT sequence

	// Forgetting rule: per-run metadata of the full window (extractMeta) and
	// the rebuilt AT/AN of a suffix whose first run straddles the cut.
	runStarts []int32
	runEvIdx  []int32
	prefixInv []int
	cutRuns   []int

	values   []int        // possible strategy: predictive values, frequency order
	ascend   []int        // scorePossible: the same values ascending
	spans    []span       // scoreCorrelated: pre-load windows
	accepted []scoredLink // mineLinks: candidates that cleared every gate

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
func sortedInto(dst, xs []int) []int {
	dst = sized(dst, len(xs))
	copy(dst, xs)
	slices.Sort(dst)
	return dst
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
