package classify

import "repro/internal/trace"

// Co-occurrence rate (COR, Section III-B2) and its lagged variant T-COR
// (Section IV-B2). Invocation series are represented by their sorted
// invoked-slot lists, which is all co-occurrence needs. The two measures the
// offline pass runs over every candidate pair — BestLaggedCOR and FollowRate
// — read those slots straight off the sparse trace.Series (ascending unique
// slots by invariant), so mining copies nothing.

// COR returns the fraction of the target's invoked slots at which the
// candidate was also invoked. Both inputs must be ascending slot lists.
// An empty target yields 0.
func COR(target, candidate []int32) float64 {
	if len(target) == 0 {
		return 0
	}
	hits := 0
	j := 0
	for _, t := range target {
		for j < len(candidate) && candidate[j] < t {
			j++
		}
		if j < len(candidate) && candidate[j] == t {
			hits++
		}
	}
	return float64(hits) / float64(len(target))
}

// LaggedCOR returns the fraction of the target's invoked slots t for which
// the candidate was invoked at exactly t-lag. Lag 0 reduces to COR.
func LaggedCOR(target, candidate []int32, lag int32) float64 {
	if len(target) == 0 {
		return 0
	}
	hits := 0
	j := 0
	for _, t := range target {
		want := t - lag
		for j < len(candidate) && candidate[j] < want {
			j++
		}
		if j < len(candidate) && candidate[j] == want {
			hits++
		}
	}
	return float64(hits) / float64(len(target))
}

// BestLaggedCOR scans lags 1..maxLag and returns the lag with the highest
// lagged COR along with that COR (ties go to the smallest lag). With an
// empty target it returns (0, 0). All lags are counted in one merged pass
// over the two series rather than one pass per lag: for every target slot t
// the candidate slots in [t-maxLag, t-1] each contribute a hit to their
// lag's counter.
func BestLaggedCOR(target, candidate trace.Series, maxLag int32) (bestLag int32, bestCOR float64) {
	if len(target) == 0 || maxLag < 1 {
		return 0, 0
	}
	var hitsBuf [64]int
	var hits []int
	if int(maxLag) < len(hitsBuf) {
		hits = hitsBuf[:maxLag+1]
	} else {
		hits = make([]int, maxLag+1)
	}
	j := 0
	for _, te := range target {
		t := te.Slot
		lo := t - maxLag
		for j < len(candidate) && candidate[j].Slot < lo {
			j++
		}
		for k := j; k < len(candidate) && candidate[k].Slot < t; k++ {
			// The range guard keeps malformed (unsorted) inputs from
			// corrupting counters; sorted inputs always land in 1..maxLag.
			if d := t - candidate[k].Slot; d >= 1 && d <= maxLag {
				hits[d]++
			}
		}
	}
	for lag := int32(1); lag <= maxLag; lag++ {
		if c := float64(hits[lag]) / float64(len(target)); c > bestCOR {
			bestCOR = c
			bestLag = lag
		}
	}
	return bestLag, bestCOR
}

// FollowRate returns the fraction of the candidate's invoked slots c for
// which the target was invoked within [c+lag-slack, c+lag+slack]. This is
// the precision of "candidate fires => target follows": the link-mining
// step requires it so that a busy candidate (whose lagged COR against
// anything is high) does not become a predictive indicator that pre-loads
// the target on every one of its own invocations.
func FollowRate(candidate, target trace.Series, lag, slack int32) float64 {
	if len(candidate) == 0 {
		return 0
	}
	hits := 0
	j := 0
	for _, ce := range candidate {
		lo := ce.Slot + lag - slack
		hi := ce.Slot + lag + slack
		for j < len(target) && target[j].Slot < lo {
			j++
		}
		if j < len(target) && target[j].Slot <= hi {
			hits++
		}
	}
	return float64(hits) / float64(len(candidate))
}

// WindowedFollowRate returns the fraction of the candidate's invoked slots
// c for which the target fired anywhere in (c, c+maxLag]. This is the
// association-rule confidence P(target follows within the window | candidate
// fired) that dependency mining uses; it normalizes by the candidate's
// activity, so a busy candidate is not trivially linked to everything.
func WindowedFollowRate(candidate, target []int32, maxLag int32) float64 {
	if len(candidate) == 0 {
		return 0
	}
	hits := 0
	j := 0
	for _, c := range candidate {
		for j < len(target) && target[j] <= c {
			j++
		}
		if j < len(target) && target[j] <= c+maxLag {
			hits++
		}
	}
	return float64(hits) / float64(len(candidate))
}
