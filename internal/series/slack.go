package series

import "sort"

// The slack rules of Section IV-A2 relax a WT sequence before re-testing the
// "regular" definition: real-world periodic functions suffer boundary
// truncation (the first/last WT of an observation window is arbitrary) and
// occasional extra invocations that split one true period into several small
// gaps.

// TrimEnds returns wts without its first and last elements (the paper's
// first slacking rule). Sequences with fewer than three elements trim to
// empty rather than panicking.
func TrimEnds(wts []int) []int {
	if len(wts) <= 2 {
		return nil
	}
	out := make([]int, len(wts)-2)
	copy(out, wts[1:len(wts)-1])
	return out
}

// MergeSmallWTs applies the paper's second slacking rule: for each WT close
// in value to the WT mode, adjacent small WTs are merged into it until
// reaching (1) the sequence's end, (2) another near-mode WT, or (3) an
// already-merged WT. Intuitively, a period occasionally interrupted by a
// stray invocation produces (1439, 1438, 1, ...) and should read as
// (1439, 1439, ...).
//
// closeTol bounds |wt - mode| for a WT to count as near-mode; smallFrac
// bounds wt/mode for a WT to count as "small" and be mergeable. The paper
// leaves both implicit; defaults used by the classifier are closeTol = 1 and
// smallFrac = 0.1. The input is not mutated.
func MergeSmallWTs(wts []int, closeTol int, smallFrac float64) []int {
	if len(wts) == 0 {
		return nil
	}
	return AppendMergedWTs(make([]int, 0, len(wts)), wts, mergeReferenceMode(wts), closeTol, smallFrac)
}

// AppendMergedWTs appends MergeSmallWTs(wts) to dst with the reference mode
// supplied by the caller (equal to MergeReferenceModeSorted of the sorted
// sequence), for callers that already hold a sorted copy and a reusable
// destination. dst must not overlap wts.
func AppendMergedWTs(dst, wts []int, mode, closeTol int, smallFrac float64) []int {
	if mode <= 0 {
		return append(dst, wts...)
	}
	isNearMode := func(wt int) bool {
		d := wt - mode
		if d < 0 {
			d = -d
		}
		return d <= closeTol
	}
	isSmall := func(wt int) bool {
		return float64(wt) <= smallFrac*float64(mode) && !isNearMode(wt)
	}

	for i := 0; i < len(wts); {
		wt := wts[i]
		i++
		if isNearMode(wt) {
			// Absorb following small WTs into this near-mode WT. Each
			// absorbed small gap also swallowed one active slot between the
			// gaps, so the reconstructed period grows by (small WT + 1). The
			// scan resumes after the absorbed run: an absorbed WT is neither
			// emitted nor absorbed twice.
			for ; i < len(wts) && isSmall(wts[i]); i++ {
				wt += wts[i] + 1
			}
		}
		dst = append(dst, wt)
	}
	return dst
}

// mergeReferenceMode picks the WT value the merge rule treats as "the mode":
// among the most frequent values, the largest. Stray interruptions split one
// true period into a large near-period WT and a small artifact, so ties
// between large and small values must resolve toward the period (in the
// paper's example (1439, 1438, 1, 1439, 1438, 1) every value occurs twice,
// and the intended mode is the near-daily 1439, not the artifact 1).
func mergeReferenceMode(wts []int) int {
	if len(wts) == 0 {
		return 0
	}
	sorted := make([]int, len(wts))
	copy(sorted, wts)
	sort.Ints(sorted)
	return MergeReferenceModeSorted(sorted)
}

// MergeReferenceModeSorted computes the merge rule's reference mode from an
// ascending-sorted WT sequence in one run-length scan: values ascend, so
// "largest among the most frequent" is the last run whose length ties the
// best.
func MergeReferenceModeSorted(sorted []int) int {
	bestVal, bestCount := 0, 0
	runStart := 0
	for i := 1; i <= len(sorted); i++ {
		if i == len(sorted) || sorted[i] != sorted[runStart] {
			if c := i - runStart; c >= bestCount {
				bestCount = c
				bestVal = sorted[runStart]
			}
			runStart = i
		}
	}
	return bestVal
}

// SlackVariants returns the candidate WT sequences the classifier tests in
// order: the raw sequence, the end-trimmed sequence, and the merged sequence
// (built from the trimmed one, mirroring the paper's cascade of slacking
// rules). Empty variants are omitted.
func SlackVariants(wts []int, closeTol int, smallFrac float64) [][]int {
	var variants [][]int
	if len(wts) > 0 {
		variants = append(variants, wts)
	}
	trimmed := TrimEnds(wts)
	if len(trimmed) > 0 {
		variants = append(variants, trimmed)
	}
	base := trimmed
	if len(base) == 0 {
		base = wts
	}
	mergedSeq := MergeSmallWTs(base, closeTol, smallFrac)
	if len(mergedSeq) > 0 && len(mergedSeq) != len(base) {
		variants = append(variants, mergedSeq)
	}
	return variants
}
