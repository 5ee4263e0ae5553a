package classify

import (
	"cmp"
	"slices"
	"sort"

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

// fires is a zero-copy view of a series' invoked slots from some window start
// on: slot(i) is rebased so the window's first slot reads 0. The offline
// pass scores strategies on the validation window this way — the suffix of
// the training series found by one binary search — instead of copying every
// function's slots into a list of its own.
type fires struct {
	evs  trace.Series
	base int32
}

// firesFrom views the part of s at or after slot start.
func firesFrom(s trace.Series, start int) fires {
	i := sort.Search(len(s), func(i int) bool { return int(s[i].Slot) >= start })
	return fires{evs: s[i:], base: int32(start)}
}

func (f fires) len() int         { return len(f.evs) }
func (f fires) slot(i int) int32 { return f.evs[i].Slot - f.base }

// scorePulsed simulates the pulsed strategy over a function's invoked slots
// within [0, slots): tolerate a cold start when a flurry begins, keep the
// function warm until its idle time reaches thetaGivenup.
func scorePulsed(invoked fires, slots int, thetaGivenup int) StrategyCost {
	cost := StrategyCost{Feasible: true}
	n := invoked.len()
	if n == 0 {
		return cost
	}
	cost.ColdStarts = 1 // the first invocation is always cold
	for i := 1; i < n; i++ {
		gap := int(invoked.slot(i)-invoked.slot(i-1)) - 1
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
	trailing := slots - int(invoked.slot(n-1)) - 1
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
func (w *scratch) scorePossible(invoked fires, slots int, values []int, thetaPrewarm, thetaGivenup int) StrategyCost {
	if len(values) == 0 {
		return StrategyCost{Feasible: false}
	}
	cost := StrategyCost{Feasible: true}
	if invoked.len() == 0 {
		return cost
	}
	// Every gap pre-loads around the same offsets. Walking them in ascending
	// order yields each gap's pre-load windows already ordered by start, so
	// their union is accumulated on the fly: no span list, no per-gap sort.
	w.ascend = sortedInto(w.ascend, values)
	cost.ColdStarts = 1
	for i := 1; i < invoked.len(); i++ {
		prev, cur := int(invoked.slot(i-1)), int(invoked.slot(i))
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
// non-positive lag reads as 1) firing at slot c pre-loads the target during [c+lag-prewarm, c+lag+prewarm]
// (clipped to c+1..), the window the online provision would hold it for. An
// invocation is warm when some candidate's window covers it; window slots
// not carrying a target invocation are waste (merged across fires).
func (w *scratch) scoreCorrelated(target fires, cands []fires, links []Link, slots int, thetaPrewarm int32) StrategyCost {
	if len(cands) == 0 {
		return StrategyCost{Feasible: false}
	}
	fireCount := 0
	for _, cand := range cands {
		fireCount += cand.len()
	}
	spans := sized(w.spans, fireCount)[:0] // one span per fire at most
	for i, cand := range cands {
		lag := int32(1)
		if i < len(links) && links[i].Lag > 0 {
			lag = links[i].Lag
		}
		for k := 0; k < cand.len(); k++ {
			c := cand.slot(k)
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
	w.spans = spans
	if len(spans) == 0 {
		return StrategyCost{Feasible: false}
	}
	// Only the union of the spans is scored, and the merge below forms it
	// from any order that is ascending in lo.
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })

	// Merge spans in place; then score warm hits and waste in one sweep.
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
	// Target slots and merged spans both ascend, so one two-pointer walk
	// finds every invocation's span: a covered invocation is warm and its
	// slot is not waste; whatever else the spans hold is.
	cost := StrategyCost{Feasible: true}
	for _, s := range merged {
		cost.WastedMem += int(s.hi-s.lo) + 1
	}
	j := 0
	for k := 0; k < target.len(); k++ {
		t := target.slot(k)
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

// AssignIndeterminate scores the three supplementary strategies for one
// function and returns its profile. counts is the function's full training
// sequence; valStart is the slot where the validation slice begins; links
// holds its accepted correlations (already thresholded); candFires the
// validation-window invoked slots of each linked candidate.
func AssignIndeterminate(counts []int, valStart int, links []Link, candFires [][]int32, cfg Config) Profile {
	act := series.Extract(counts)

	// Validation-window invoked slots of the target.
	var valInvoked trace.Series
	for _, s := range series.InvokedSlots(counts[valStart:]) {
		valInvoked = append(valInvoked, trace.Event{Slot: int32(s), Count: 1})
	}
	cands := make([]fires, len(candFires))
	for i, slots := range candFires {
		evs := make(trace.Series, len(slots))
		for k, s := range slots {
			evs[k] = trace.Event{Slot: s, Count: 1}
		}
		cands[i] = fires{evs: evs}
	}
	var w scratch
	return w.assignIndeterminate(act, fires{evs: valInvoked}, len(counts)-valStart, links, cands, cfg)
}

// assignIndeterminate is AssignIndeterminate over pre-extracted inputs: the
// function's full-window Activity and views of its own and its linked
// candidates' validation-window fires (cands is parallel to links), letting
// the offline phase skip the dense per-slot expansion entirely. The returned
// profile owns its Values; links is stored as given.
func (w *scratch) assignIndeterminate(act series.Activity, valInvoked fires, valSlots int, links []Link, cands []fires, cfg Config) Profile {
	// The possible strategy's predictive values: WTs occurring more than
	// once, most frequent first (stats.RepeatedValues, read off the table of
	// the sorted copy).
	w.sorted[0] = sortedInto(w.sorted[0], act.WT)
	sortedWT := w.sorted[0]
	w.table = stats.AppendFrequencyTableSorted(w.table[:0], sortedWT)
	possibleValues := w.values[:0]
	for _, mc := range w.table {
		if mc.Count > 1 {
			possibleValues = append(possibleValues, mc.Value)
		}
	}
	w.values = possibleValues
	possible := func() Profile {
		values := make([]int, len(possibleValues))
		copy(values, possibleValues)
		return Profile{
			Type:     TypePossible,
			Values:   values,
			MedianWT: stats.MedianSortedInts(sortedWT),
			StdWT:    stats.StdDevInts(act.WT),
			WTCount:  len(act.WT),
		}
	}

	if valInvoked.len() == 0 {
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
