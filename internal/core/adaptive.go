package core

import (
	"sort"

	"repro/internal/classify"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Adaptive strategy 1 (Section IV-C1): adjust predictive values as online
// waiting times drift away from the offline profile, and promote unknown or
// unseen functions whose online WTs develop a usable pattern.

// recordOnlineWT appends a finished waiting time to the function's online
// history (S1) and, when enough new samples have accumulated, runs the
// adjustment (S2) or promotion (S3) step. The hot type cache (s.typ) is
// re-synced afterwards: promotion and adjustment may rewrite the profile.
func (s *provision) recordOnlineWT(fid trace.FuncID, wt int) {
	if s.cfg.DisableAdjusting {
		return
	}
	st := &s.states[fid]
	if len(st.onlineWTs) < maxOnlineWTs {
		if st.onlineWTs == nil {
			st.onlineWTs = make([]int, 0, maxOnlineWTs)
		}
		st.onlineWTs = append(st.onlineWTs, wt)
	} else {
		// Ring overwrite: drop the oldest sample in place.
		st.histRemove(st.onlineWTs[st.wtHead])
		st.onlineWTs[st.wtHead] = wt
		st.wtHead++
		if int(st.wtHead) == maxOnlineWTs {
			st.wtHead = 0
		}
		if st.adjustedAt > 0 {
			st.adjustedAt--
		}
	}
	st.histAdd(wt)
	if len(st.onlineWTs)-st.adjustedAt < s.cfg.AdjustMinWTs {
		return
	}
	st.adjustedAt = len(st.onlineWTs)

	switch st.profile.Type {
	case classify.TypeRegular, classify.TypeApproRegular, classify.TypeDense,
		classify.TypePossible, classify.TypeNewlyPossible:
		s.adjustPredictiveValues(st)
	case classify.TypeUnknown:
		s.promoteUnknown(st)
	}
	s.typ[fid] = st.profile.Type
}

// chronoWTs returns st's online WTs oldest-first. While the ring has not
// wrapped the storage is already chronological; afterwards the two halves
// are unrolled into the policy's scratch buffer (valid until the next
// call). The adaptive float statistics (StdDev and friends) must see the
// samples in arrival order so their summation rounding matches the
// reference implementation exactly.
func (s *provision) chronoWTs(st *funcState) []int {
	if st.wtHead == 0 {
		return st.onlineWTs
	}
	buf := append(s.wtScratch[:0], st.onlineWTs[st.wtHead:]...)
	return append(buf, st.onlineWTs[:st.wtHead]...)
}

// The online-WT histogram: recordOnlineWT sits on Tick's per-invocation hot
// path, so the multiset of the last maxOnlineWTs waiting times is kept as a
// bounded counting histogram (O(1) add/remove) with per-block sums so the
// order statistics the adjustment step needs are a short two-level scan —
// no sorting anywhere near the hot path. Values past the histogram range
// (long idle gaps) spill into a small sorted overflow slice.
const (
	wtHistSize  = 512
	wtHistBlock = 16
)

// histAdd counts one waiting time into the function's online-WT multiset.
func (st *funcState) histAdd(v int) {
	if st.wtHist == nil {
		st.wtHist = make([]uint16, wtHistSize)
		st.wtBlock = make([]uint16, wtHistSize/wtHistBlock)
	}
	if v < wtHistSize {
		if st.wtHist[v] == 0 {
			st.wtDistinct++
		}
		st.wtHist[v]++
		st.wtBlock[v/wtHistBlock]++
		return
	}
	i := sort.SearchInts(st.wtOver, v)
	if i >= len(st.wtOver) || st.wtOver[i] != v {
		st.wtDistinct++
	}
	st.wtOver = append(st.wtOver, 0)
	copy(st.wtOver[i+1:], st.wtOver[i:])
	st.wtOver[i] = v
}

// histRemove removes one occurrence of v (which must be present).
func (st *funcState) histRemove(v int) {
	if v < wtHistSize {
		st.wtHist[v]--
		st.wtBlock[v/wtHistBlock]--
		if st.wtHist[v] == 0 {
			st.wtDistinct--
		}
		return
	}
	i := sort.SearchInts(st.wtOver, v)
	st.wtOver = append(st.wtOver[:i], st.wtOver[i+1:]...)
	if j := sort.SearchInts(st.wtOver, v); j >= len(st.wtOver) || st.wtOver[j] != v {
		st.wtDistinct--
	}
}

// kthOnline returns the k-th smallest (0-based) of the online-WT multiset.
func (st *funcState) kthOnline(k int) int {
	cum := 0
	for b := range st.wtBlock {
		bc := int(st.wtBlock[b])
		if cum+bc > k {
			for v := b * wtHistBlock; ; v++ {
				cum += int(st.wtHist[v])
				if cum > k {
					return v
				}
			}
		}
		cum += bc
	}
	return st.wtOver[k-cum]
}

// medianOnline reproduces stats.Median(stats.IntsToFloats(st.onlineWTs)) bit
// for bit from the histogram (the same order statistics feed the same
// float64 interpolation).
func (st *funcState) medianOnline() float64 {
	n := len(st.onlineWTs)
	if n == 0 {
		return 0
	}
	pos := 0.5 * float64(n-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= n {
		return float64(st.kthOnline(lo))
	}
	frac := pos - float64(lo)
	return float64(st.kthOnline(lo))*(1-frac) + float64(st.kthOnline(hi))*frac
}

// adjustPredictiveValues implements S2: if the online WT statistics moved
// significantly (|new median - old median| > old std), blend the predictive
// values toward the online behaviour with the mean of old and new.
func (s *provision) adjustPredictiveValues(st *funcState) {
	newMedian := st.medianOnline()
	shift := newMedian - st.profile.MedianWT
	if shift < 0 {
		shift = -shift
	}
	// "Larger than the standard [deviation] of offline WTs"; a zero std
	// (perfectly regular offline) uses a one-slot tolerance so genuinely
	// shifted functions still adapt.
	tol := st.profile.StdWT
	if tol < 1 {
		tol = 1
	}
	if shift <= tol {
		return
	}
	online := stats.IntsToFloats(s.chronoWTs(st))

	blend := func(old int) int {
		return int((float64(old) + newMedian) / 2)
	}
	switch st.profile.Type {
	case classify.TypeRegular:
		if len(st.profile.Values) == 1 {
			st.profile.Values[0] = blend(st.profile.Values[0])
		}
	case classify.TypeApproRegular:
		// Replace with the blend of each old mode toward the new behaviour's
		// modes, rank by rank; missing online modes keep the old value.
		newModes := stats.Modes(st.onlineWTs, len(st.profile.Values))
		for i := range st.profile.Values {
			if i < len(newModes) {
				st.profile.Values[i] = (st.profile.Values[i] + newModes[i]) / 2
			}
		}
	case classify.TypeDense:
		lo, hi, ok := stats.ModeRange(st.onlineWTs, s.cfg.Classify.DenseModes)
		if ok {
			st.profile.RangeLo = (st.profile.RangeLo + lo) / 2
			st.profile.RangeHi = (st.profile.RangeHi + hi) / 2
			if st.profile.RangeHi < st.profile.RangeLo {
				st.profile.RangeHi = st.profile.RangeLo
			}
		}
	case classify.TypePossible, classify.TypeNewlyPossible:
		if repeated := stats.RepeatedValues(st.onlineWTs); len(repeated) > 0 {
			st.profile.Values = repeated
		}
	}
	st.profile.MedianWT = (st.profile.MedianWT + newMedian) / 2
	st.profile.StdWT = stats.StdDev(online)
}

// promoteUnknown implements S3 for unknown functions: when the online WTs
// expose at least one duplicated value, the function becomes
// "newly-possible" with those values as predictions (the promotion the
// paper reports for its two-day simulation; longer horizons could promote
// into any deterministic type).
func (s *provision) promoteUnknown(st *funcState) {
	// The histogram answers "any duplicate?" in O(1) (fewer distinct values
	// than samples), keeping the frequency-table build off the hot path for
	// erratic functions.
	if int(st.wtDistinct) >= len(st.onlineWTs) {
		return
	}
	repeated := stats.RepeatedValues(st.onlineWTs)
	online := stats.IntsToFloats(s.chronoWTs(st))
	st.profile = classify.Profile{
		Type:     classify.TypeNewlyPossible,
		Values:   repeated,
		MedianWT: stats.Median(online),
		StdWT:    stats.StdDev(online),
		WTCount:  len(st.onlineWTs),
	}
}
