package classify

import (
	"cmp"
	"slices"

	"repro/internal/trace"
)

// References for the kernels of the offline pass, as they were before each
// was made cheaper: a span union formed by sorting every pre-load window.
// Two references are not here: the WT distribution is held to the stats and
// series sorting forms (dist_test.go), and the merge forms of BestLaggedCOR
// and FollowRate in cor.go remain the kernel of sparse pairs, the bitset
// kernel being held to them.

// scoreCorrelatedRef is scoreCorrelated with the union formed by sorting
// every candidate's windows by start and merging them in place.
func scoreCorrelatedRef(target trace.Parts, cands []trace.Parts, links []Link, slots int, thetaPrewarm int32) StrategyCost {
	if len(cands) == 0 {
		return StrategyCost{Feasible: false}
	}
	var spans []span
	for i, cand := range cands {
		lag := int32(1)
		if i < len(links) && links[i].Lag > 0 {
			lag = links[i].Lag
		}
		for k := 0; k < cand.Len(); k++ {
			c := cand.Slot(k)
			lo, hi := c+lag-thetaPrewarm, c+lag+thetaPrewarm
			if lo <= c {
				lo = c + 1
			}
			if hi >= int32(slots) {
				hi = int32(slots) - 1
			}
			if lo <= hi {
				spans = append(spans, span{lo, hi})
			}
		}
	}
	if len(spans) == 0 {
		return StrategyCost{Feasible: false}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	merged := spans[:1]
	for _, s := range spans[1:] {
		last := &merged[len(merged)-1]
		if s.lo <= last.hi+1 {
			if s.hi > last.hi {
				last.hi = s.hi
			}
		} else {
			merged = append(merged, s)
		}
	}
	cost := StrategyCost{Feasible: true}
	for _, s := range merged {
		cost.WastedMem += int(s.hi-s.lo) + 1
	}
	j := 0
	for k := 0; k < target.Len(); k++ {
		t := target.Slot(k)
		for j < len(merged) && merged[j].hi < t {
			j++
		}
		if j < len(merged) && merged[j].lo <= t {
			cost.WastedMem--
		} else {
			cost.ColdStarts++
		}
	}
	return cost
}
