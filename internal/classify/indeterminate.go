package classify

import (
	"slices"

	"repro/internal/series"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Indeterminate assignment (Section IV-B2): functions that match none of
// the five deterministic definitions (even after forgetting) are scored
// under three supplementary strategies on a validation slice, and assigned
// to whichever wins the cold-start / wasted-memory trade-off.

// StrategyCost is a strategy's validation outcome for one function.
type StrategyCost struct {
	ColdStarts int
	WastedMem  int
	Feasible   bool
}

// The strategies are scored on a function's invoked slots in the
// validation window, read in place: Parts.From(valStart), the suffix found
// by one binary search per part and rebased so the window's first slot
// reads 0, instead of a copy of every function's slots.

// scorePulsed simulates the pulsed strategy over a function's invoked slots
// within [0, slots): tolerate a cold start when a flurry begins, keep the
// function warm until its idle time reaches thetaGivenup.
func scorePulsed(invoked trace.Parts, slots int, thetaGivenup int) StrategyCost {
	cost := StrategyCost{Feasible: true}
	n := invoked.Len()
	if n == 0 {
		return cost
	}
	cost.ColdStarts = 1 // the first invocation is always cold
	for i := 1; i < n; i++ {
		gap := int(invoked.Slot(i)-invoked.Slot(i-1)) - 1
		if gap >= thetaGivenup {
			// Evicted after thetaGivenup idle slots; those idle slots up to
			// the eviction (exclusive) were wasted.
			cost.WastedMem += thetaGivenup - 1
			cost.ColdStarts++
		} else {
			cost.WastedMem += gap
		}
	}
	// Trailing idle until window end.
	trailing := slots - int(invoked.Slot(n-1)) - 1
	if trailing > 0 {
		waste := thetaGivenup - 1
		if trailing < waste {
			waste = trailing
		}
		cost.WastedMem += waste
	}
	return cost
}

// scorePossible simulates the possible strategy: predictive values are the
// duplicated WTs; the function is pre-loaded when a predicted invocation
// falls within thetaPrewarm, and evicted after thetaGivenup idle slots.
func (w *scratch) scorePossible(invoked trace.Parts, slots int, values []int, thetaPrewarm, thetaGivenup int) StrategyCost {
	if len(values) == 0 {
		return StrategyCost{Feasible: false}
	}
	cost := StrategyCost{Feasible: true}
	if invoked.Len() == 0 {
		return cost
	}
	// Every gap pre-loads around the same offsets. Walking them in ascending
	// order yields each gap's pre-load windows already ordered by start, so
	// their union is accumulated on the fly: no span list, no per-gap sort.
	w.ascend = append(w.ascend[:0], values...)
	slices.Sort(w.ascend)
	cost.ColdStarts = 1
	for i := 1; i < invoked.Len(); i++ {
		prev, cur := int(invoked.Slot(i-1)), int(invoked.Slot(i))
		gap := cur - prev - 1

		warm := gap < thetaGivenup
		// Pre-load windows: [prev+v-thetaPrewarm, prev+v+thetaPrewarm] per
		// predictive value v. The invocation is warm when it lands inside
		// one; idle slots covered by windows before cur are waste. covered
		// counts the union of the windows clipped to the idle gap (prev,
		// cur), [curLo, curHi] being the piece still open.
		covered := 0
		curLo, curHi := 0, -1
		for _, v := range w.ascend {
			lo, hi := prev+v-thetaPrewarm, prev+v+thetaPrewarm
			if lo > cur {
				// This window and every later one starts past the
				// invocation: none warms it, none overlaps the gap.
				break
			}
			if cur <= hi {
				warm = true
			}
			if lo < prev+1 {
				lo = prev + 1
			}
			if hi > cur-1 {
				hi = cur - 1
			}
			switch {
			case lo > hi:
			case curHi < curLo:
				curLo, curHi = lo, hi
			case lo > curHi+1:
				covered += curHi - curLo + 1
				curLo, curHi = lo, hi
			case hi > curHi:
				curHi = hi
			}
		}
		if warm {
			if gap < thetaGivenup {
				cost.WastedMem += gap
			}
		} else {
			cost.ColdStarts++
			if thetaGivenup-1 < gap {
				cost.WastedMem += thetaGivenup - 1
			} else {
				cost.WastedMem += gap
			}
		}
		if curLo <= curHi {
			covered += curHi - curLo + 1
			// Keep-alive waste already charged the first thetaGivenup-1
			// idle slots; only count pre-load coverage beyond it.
			if beyond := covered - (thetaGivenup - 1); beyond > 0 {
				cost.WastedMem += beyond
			}
		}
	}
	return cost
}

// scoreCorrelated simulates the correlated strategy: each linked candidate
// (cands[i] fires, links[i].Lag slots ahead of the target; a missing or
// non-positive lag reads as 1) firing at slot c pre-loads the target during
// [c+lag-prewarm, c+lag+prewarm] (clipped to c+1..), the window the online
// provision would hold it for. An invocation is warm when some candidate's
// window covers it; window slots not carrying a target invocation are waste
// (merged across fires).
//
// Only the union of the windows is scored. A candidate's windows already
// ascend in their start, max(c+lag-prewarm, c+1) growing strictly with c,
// so the union is formed by a k-way merge of the candidates' lists, and
// the target's fires are scored against each maximal span as it closes. A
// union does not depend on the order its members arrive in.
func (w *scratch) scoreCorrelated(target trace.Parts, cands []trace.Parts, links []Link, slots int, thetaPrewarm int32) StrategyCost {
	if len(cands) == 0 {
		return StrategyCost{Feasible: false}
	}
	var buf [maxLinks]spanList
	lists := buf[:0]
	for i, cand := range cands {
		l := spanList{fires: cand, lag: 1, prewarm: thetaPrewarm, end: int32(slots) - 1}
		if i < len(links) && links[i].Lag > 0 {
			l.lag = links[i].Lag
		}
		if l.next() {
			lists = append(lists, l)
		}
	}
	if len(lists) == 0 {
		return StrategyCost{Feasible: false}
	}

	cost := StrategyCost{Feasible: true}
	j := 0 // the target's next unscored fire
	// score charges one maximal span: fires before it are cold, fires in
	// it warm, its other slots waste.
	score := func(s span) {
		cost.WastedMem += int(s.hi-s.lo) + 1
		for ; j < target.Len() && target.Slot(j) < s.lo; j++ {
			cost.ColdStarts++
		}
		for ; j < target.Len() && target.Slot(j) <= s.hi; j++ {
			cost.WastedMem--
		}
	}
	cur := span{lo: 1, hi: 0} // the span still open; none yet
	for len(lists) > 0 {
		k := 0
		for i := 1; i < len(lists); i++ {
			if lists[i].head.lo < lists[k].head.lo {
				k = i
			}
		}
		s := lists[k].head
		if !lists[k].next() {
			lists[k] = lists[len(lists)-1]
			lists = lists[:len(lists)-1]
		}
		switch {
		case cur.lo > cur.hi:
			cur = s
		case s.lo <= cur.hi+1:
			cur.hi = max(cur.hi, s.hi)
		default:
			score(cur)
			cur = s
		}
	}
	score(cur)
	cost.ColdStarts += target.Len() - j
	return cost
}

// spanList walks one candidate's pre-load windows in ascending start,
// skipping windows the clip empties; head is the current one.
type spanList struct {
	fires        trace.Parts
	k            int // next fire
	lag, prewarm int32
	end          int32 // last slot of the window scored
	head         span
}

// next advances head to the next non-empty window, reporting whether there
// was one.
func (l *spanList) next() bool {
	for ; l.k < l.fires.Len(); l.k++ {
		c := l.fires.Slot(l.k)
		lo, hi := max(c+l.lag-l.prewarm, c+1), min(c+l.lag+l.prewarm, l.end)
		if lo <= hi {
			l.head = span{lo, hi}
			l.k++
			return true
		}
	}
	return false
}

// ChooseStrategy applies the assignment rule of Section IV-B2: a strategy
// that minimizes both cold starts and wasted memory wins outright;
// otherwise the rise rates between the cold-start winner and the memory
// winner are compared under the scaling factor alpha (smaller alpha puts
// more weight on cold starts). The returned index is into costs; -1 means
// no strategy was feasible.
func ChooseStrategy(costs []StrategyCost, alpha float64) int {
	csWinner, wmWinner := -1, -1
	for i, c := range costs {
		if !c.Feasible {
			continue
		}
		if csWinner < 0 || c.ColdStarts < costs[csWinner].ColdStarts {
			csWinner = i
		}
		if wmWinner < 0 || c.WastedMem < costs[wmWinner].WastedMem {
			wmWinner = i
		}
	}
	if csWinner < 0 {
		return -1
	}
	if csWinner == wmWinner {
		return csWinner
	}
	// Rise rate of cold starts if we pick the memory winner, and of memory
	// if we pick the cold-start winner. Guard denominators: a zero-cost
	// winner makes the other side's rise rate infinite.
	dcs := riseRate(costs[wmWinner].ColdStarts, costs[csWinner].ColdStarts)
	dwm := riseRate(costs[csWinner].WastedMem, costs[wmWinner].WastedMem)
	if dcs*alpha <= dwm {
		return csWinner
	}
	return wmWinner
}

// riseRate returns the relative increase from best to worse. A zero best is
// clamped to one so a perfect strategy yields a large-but-finite rise rate
// instead of the paper formula's division by zero.
func riseRate(worse, best int) float64 {
	if worse < best {
		worse = best
	}
	denom := best
	if denom == 0 {
		denom = 1
	}
	return float64(worse-best) / float64(denom)
}

// assignIndeterminate scores the three supplementary strategies for one
// function and returns its profile. Its inputs are pre-extracted: the
// function's full-window Activity, views of its own and its linked
// candidates' validation-window fires (cands is parallel to links, which
// holds its accepted correlations) and the validation window's length, so
// the offline phase never expands a dense per-slot sequence. The returned
// profile owns its Values; links is stored as given.
func (w *scratch) assignIndeterminate(act series.Activity, valInvoked trace.Parts, valSlots int, links []Link, cands []trace.Parts, cfg Config) Profile {
	// The possible strategy's predictive values: WTs occurring more than
	// once, most frequent first (stats.RepeatedValues, read off the WT
	// distribution).
	wtDist := w.distInto(0, act.WT)
	w.values, w.table = wtDist.appendRepeated(w.values[:0], w.table)
	possibleValues := w.values
	possible := func() Profile {
		values := make([]int, len(possibleValues))
		copy(values, possibleValues)
		return Profile{
			Type:     TypePossible,
			Values:   values,
			MedianWT: wtDist.quantile(0.5),
			StdWT:    stats.StdDevInts(act.WT),
			WTCount:  len(act.WT),
		}
	}

	if valInvoked.Len() == 0 {
		// Never invoked during validation: no basis for scoring. Fall back
		// on static structure, preferring informative strategies.
		switch {
		case len(possibleValues) > 0:
			return possible()
		case len(links) > 0:
			return Profile{Type: TypeCorrelated, Links: links, WTCount: len(act.WT)}
		case act.Invocations == 0:
			return Profile{Type: TypeUnknown}
		default:
			return Profile{Type: TypePulsed, WTCount: len(act.WT)}
		}
	}

	prewarm := cfg.ValidationPrewarm
	if prewarm <= 0 {
		prewarm = cfg.ThetaPrewarm
	}
	costs := [...]StrategyCost{
		scorePulsed(valInvoked, valSlots, cfg.ThetaGivenup(TypePulsed)),
		w.scoreCorrelated(valInvoked, cands, links, valSlots, int32(prewarm)),
		w.scorePossible(valInvoked, valSlots, possibleValues, prewarm, cfg.ThetaGivenup(TypePossible)),
	}
	switch ChooseStrategy(costs[:], cfg.Alpha) {
	case 1:
		return Profile{Type: TypeCorrelated, Links: links, WTCount: len(act.WT)}
	case 2:
		return possible()
	default:
		return Profile{Type: TypePulsed, WTCount: len(act.WT)}
	}
}
