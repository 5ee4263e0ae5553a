package classify

import (
	"runtime"

	"repro/internal/stats"
	"repro/internal/trace"
)

// scratch is one worker's reusable working memory for the offline pass.
// A Categorize call's trace.FanOut worker borrows one from scratchFree for
// the whole call, so every item the worker takes reuses it: the
// per-function intermediates — extracted activity, slack-variant
// distributions, frequency tables, pre-load spans — cost an allocation only
// when a function needs more room than any before it on that scratch, in
// this call or an earlier one.
//
// Ownership rule: nothing reachable from a Profile may point into scratch.
// A buffer's contents are meaningless once the step that filled it returns
// (the next function overwrites them), so whatever escapes — Values, Links —
// is copied out into an exactly sized slice of its own.
type scratch struct {
	act     []int                // extractWindow: AT, AN and WT of the current window
	dists   [3][]stats.ModeCount // distInto: the distribution of each slack variant
	merged  []int                // categorizeActivity: the merged slack variant
	hist    []int                // distInto: counting histogram over [min, max]
	sortBuf []int                // distInto: sorted copy when the histogram does not pay

	top   []stats.ModeCount // head of the raw variant's frequency table
	table []stats.ModeCount // head of another variant's table; repeated values

	// Forgetting rule: per-run metadata of the full window (extractMeta) and
	// the rebuilt AT/AN of a suffix whose first run straddles the cut.
	runStarts []int32
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

// scratchFree holds the scratch of returned Categorize calls for the next
// call's workers. Like trace.FanOut's free list of call state it is
// process-wide and not emptied by a collection, so a warm process's calls
// allocate no scratch. At most GOMAXPROCS+1 workers categorize at once —
// FanOut's GOMAXPROCS helper tokens plus the outermost caller — so it holds
// that many; past it a returned scratch is dropped.
var scratchFree = make(chan *scratch, runtime.GOMAXPROCS(0)+1)

// borrow returns worker wi's scratch of a call, taking a free one, or a new
// one when none is free, at the worker's first item: a worker index stays
// one goroutine's for a whole FanOut call, and a call's two passes run one
// after the other.
func borrow(ws []*scratch, wi int) *scratch {
	if ws[wi] == nil {
		select {
		case ws[wi] = <-scratchFree:
		default:
			ws[wi] = new(scratch)
		}
	}
	return ws[wi]
}

// putScratches returns every scratch a call's workers borrowed to the free
// list. A lag scanner's last target and candidate are views of the call's
// training trace, which the caller may reuse once Categorize returns, so
// they are dropped first.
func putScratches(ws []*scratch) {
	for _, w := range ws {
		if w == nil {
			continue
		}
		w.lags.reset(trace.Parts{})
		select {
		case scratchFree <- w:
		default:
		}
	}
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

// countingSortPays reports whether the distribution of n values with
// max-min == spread is built faster through a histogram of spread+1
// counters than by a comparison sort: the histogram pass costs
// O(n + spread), pdqsort O(n log n). It reads nothing but the two sizes.
func countingSortPays(n int, spread uint) bool {
	return spread < 2*uint(n)
}
