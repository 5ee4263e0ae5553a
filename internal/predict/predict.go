// Package predict implements SPES's next-invocation prediction (Section
// IV-D): given a function's categorization profile and the time of its last
// invocation, decide whether a predicted invocation falls close enough to
// "now" that the function should be pre-loaded.
package predict

import "repro/internal/classify"

// NarrowRangeMax is Section IV-D's threshold deciding whether a "possible"
// function's predictive values act as discrete points (wide range, spanning
// more than NarrowRangeMax slots) or as one continuous interval (narrow
// range).
const NarrowRangeMax = 10

// ShouldPrewarm reports whether, at time t, some predicted invocation of the
// function falls within thetaPrewarm slots ("one of the predicted invocation
// times falls in [t - theta, t + theta]"): whether PrewarmWindowScan finds t
// covered.
func ShouldPrewarm(profile *classify.Profile, lastInvoked, t, thetaPrewarm int) bool {
	off, _ := PrewarmWindowScan(profile, lastInvoked, t, thetaPrewarm)
	return off > t
}

// PrewarmWindowScan is SPES's pre-warm rule. A profile predicts invocation
// windows relative to the last invocation: one point lastInvoked+v per value
// v for the regular types; [lastInvoked+RangeLo, lastInvoked+RangeHi] for
// dense (none when the range is inverted); for the possible types, one
// point per value when the values span more than NarrowRangeMax slots
// (wide range) and their [min, max] interval otherwise (narrow range); none
// for every other type. A slot is covered when some window widened by theta
// on both sides contains it. The scan answers the event-driven provision
// loop's per-wake-up questions in one enumeration:
//
//	off — the smallest uncovered slot >= t (off == t means t itself is
//	      uncovered; off > t means t is covered through off-1);
//	on  — the smallest covered slot >= t+1, or -1 when no pre-warm window
//	      reaches past t.
//
// ShouldPrewarm, NextPrewarmOn and NextPrewarmOff are read off it. It runs
// once per active function per slot inside the provision loop, so the
// windows are enumerated with plain loops — no allocation, no closures.
func PrewarmWindowScan(profile *classify.Profile, lastInvoked, t, theta int) (off, on int) {
	switch profile.Type {
	case classify.TypeRegular, classify.TypeApproRegular:
		return scanValueWindows(profile.Values, lastInvoked, t, theta)
	case classify.TypeDense:
		if profile.RangeHi < profile.RangeLo {
			return t, -1
		}
		return scanOneWindow(lastInvoked+profile.RangeLo-theta, lastInvoked+profile.RangeHi+theta, t)
	case classify.TypePossible, classify.TypeNewlyPossible:
		if len(profile.Values) == 0 {
			return t, -1
		}
		lo, hi := profile.Values[0], profile.Values[0]
		for _, v := range profile.Values[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo > NarrowRangeMax {
			return scanValueWindows(profile.Values, lastInvoked, t, theta)
		}
		return scanOneWindow(lastInvoked+lo-theta, lastInvoked+hi+theta, t)
	default:
		return t, -1
	}
}

// scanValueWindows is PrewarmWindowScan over the discrete windows
// [lastInvoked+v-theta, lastInvoked+v+theta]. The off-chase repeats until a
// fixpoint because the windows arrive unordered and may overlap; it runs at
// most once per window.
func scanValueWindows(values []int, lastInvoked, t, theta int) (off, on int) {
	off, on = t, -1
	for _, v := range values {
		lo, hi := lastInvoked+v-theta, lastInvoked+v+theta
		if hi >= t+1 {
			cand := lo
			if cand < t+1 {
				cand = t + 1
			}
			if on < 0 || cand < on {
				on = cand
			}
		}
	}
	for {
		advanced := false
		for _, v := range values {
			lo, hi := lastInvoked+v-theta, lastInvoked+v+theta
			if off >= lo && off <= hi {
				off = hi + 1
				advanced = true
			}
		}
		if !advanced {
			return off, on
		}
	}
}

// scanOneWindow is PrewarmWindowScan for a single window [lo, hi].
func scanOneWindow(lo, hi, t int) (off, on int) {
	off, on = t, -1
	if t >= lo && t <= hi {
		off = hi + 1
	}
	if hi >= t+1 {
		on = lo
		if on < t+1 {
			on = t + 1
		}
	}
	return off, on
}

// NextPrewarmOn returns the smallest slot t >= from at which
// ShouldPrewarm(profile, lastInvoked, t, theta) is true, or -1 when no
// pre-warm window starts at or after from. The event-driven provision loop
// uses it to schedule the wake-up that loads an idle function.
func NextPrewarmOn(profile *classify.Profile, lastInvoked, from, theta int) int {
	_, on := PrewarmWindowScan(profile, lastInvoked, from-1, theta)
	return on
}

// NextPrewarmOff returns the smallest slot t >= from at which ShouldPrewarm
// is false. Pre-warm windows are finite, so it always exists. The
// event-driven provision loop uses it to schedule the eviction of a loaded
// function whose predicted invocations keep it warm past its idle patience.
func NextPrewarmOff(profile *classify.Profile, lastInvoked, from, theta int) int {
	off, _ := PrewarmWindowScan(profile, lastInvoked, from, theta)
	return off
}
