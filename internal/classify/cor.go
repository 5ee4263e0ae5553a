package classify

import (
	"math/bits"

	"repro/internal/trace"
)

// Co-occurrence rate (COR, Section III-B2) and its lagged variant T-COR
// (Section IV-B2). Invocation series are represented by their sorted
// invoked-slot lists, which is all co-occurrence needs. The two measures the
// offline pass runs over every candidate pair — BestLaggedCOR and FollowRate
// — read those slots straight off the sparse trace.Series (ascending unique
// slots by invariant), so mining copies nothing. Their merge forms below are
// the kernel of sparse pairs; lagScanner computes the same counts over
// bitsets for dense ones.

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

// lagScanner is the bitset form of the two measures for one target and any
// number of candidates. Both bitsets span the target's active window, from
// its first fire's 64-slot word to its last's, plus one word on either side:
// slot s is bit s-origin of tbits (the target) and of cbits (the current
// candidate). The padding lets a lag carry a candidate fire up to 63 slots
// into the next word, and a follow window reach up to 63 slots either way,
// without a bounds case. The target's bits are set the first time a pair
// takes the bitset kernel and serve its remaining candidates.
type lagScanner struct {
	target trace.Series
	base   int // first word of the target's span
	words  int // the span's length in 64-slot words
	built  bool
	tbits  []uint64
	cand   trace.Series // the candidate whose bits cbits holds
	cbits  []uint64
}

// reset points the scanner at a new target, dropping the old one's bits.
func (ls *lagScanner) reset(target trace.Series) {
	ls.target, ls.built, ls.cand = target, false, nil
	ls.base, ls.words = 0, 0
	if len(target) > 0 {
		ls.base = int(target[0].Slot) >> 6
		ls.words = int(target[len(target)-1].Slot)>>6 - ls.base + 1
	}
}

// origin is the slot of bit 0 of both bitsets.
func (ls *lagScanner) origin() int { return (ls.base - 1) << 6 }

// build sets the target's bits, once per target.
func (ls *lagScanner) build() {
	if ls.built {
		return
	}
	ls.built = true
	ls.tbits = setBits(ls.tbits, ls.words+2, ls.origin(), ls.target)
}

// setCandidate sets cbits to the candidate's fires within the bitset span,
// unless they are already there.
func (ls *lagScanner) setCandidate(candidate trace.Series) {
	if len(ls.cand) != 0 && len(ls.cand) == len(candidate) && &ls.cand[0] == &candidate[0] {
		return
	}
	ls.cand = candidate
	ls.cbits = setBits(ls.cbits, ls.words+2, ls.origin(), candidate)
}

// setBits returns bits resized to n words, holding exactly the fires of s
// in [origin, origin+64n) at bit slot-origin. Fires ascend, so each word is
// assembled in a register and stored once instead of being rewritten per
// fire.
func setBits(bits []uint64, n, origin int, s trace.Series) []uint64 {
	bits = sized(bits, n)
	clear(bits)
	limit := uint(n << 6)
	word, acc := 0, uint64(0)
	for _, e := range s {
		i := int(e.Slot) - origin
		if uint(i) >= limit {
			if i < 0 {
				continue
			}
			break
		}
		if i>>6 != word {
			bits[word] = acc
			word, acc = i>>6, 0
		}
		acc |= 1 << (i & 63)
	}
	bits[word] = acc
	return bits
}

// bitsetLagScanPays reports whether a pair's lag scan and precision gate
// are cheaper over bitsets than by the merge, from sizes alone: the
// target's and the candidate's fire counts, the target's span in words and
// the lag bound. The merge visits every fire of both series and, per target
// fire, each candidate fire within maxLag slots before it — at the
// candidate's average density over the span, nTarget*nCand*maxLag/(64*words)
// of them. The bitset form sets the candidate's bits, clears and walks the
// span's words, makes one shift-and-popcount step per lag for every word
// holding a target fire (at most min(nTarget, words)) and dilates the
// target for every word holding a candidate fire. The weights are relative
// per-step costs measured by BenchmarkLagScan's two shapes and the pairs
// between them. A lag beyond 63 does not fit the one-word shift and always
// merges.
func bitsetLagScanPays(nTarget, nCand, words int, maxLag int32) bool {
	if maxLag < 1 || maxLag > 63 || nTarget == 0 || words == 0 {
		return false
	}
	lags := int(maxLag)
	merge := 9*nTarget + 7*nCand + 12*nTarget*nCand*lags/(64*words)
	bitset := 4*nCand + 4*words + 20*min(nCand, words) + 6*lags*min(nTarget, words)
	return bitset < merge
}

// bestLaggedCOR is BestLaggedCOR(ls.target, candidate, maxLag) over
// bitsets: hits[d] = popcount(T & C<<d) counts the target fires at t with a
// candidate fire at t-d, exactly the merge's counter, and the best lag is
// read off the counters by the same loop. maxLag must lie in 1..63.
func (ls *lagScanner) bestLaggedCOR(candidate trace.Series, maxLag int32) (bestLag int32, bestCOR float64) {
	if len(ls.target) == 0 {
		return 0, 0
	}
	ls.build()
	ls.setCandidate(candidate)
	tb, cb := ls.tbits, ls.cbits
	var hits [64]int
	for i := 1; i <= ls.words; i++ {
		t, cur, prev := tb[i], cb[i], cb[i-1]
		if t == 0 || cur|prev == 0 {
			continue
		}
		for d := uint(1); d <= uint(maxLag); d++ {
			hits[d] += bits.OnesCount64(t & (cur<<(d&63) | prev>>((64-d)&63)))
		}
	}
	for lag := int32(1); lag <= maxLag; lag++ {
		if c := float64(hits[lag]) / float64(len(ls.target)); c > bestCOR {
			bestCOR = c
			bestLag = lag
		}
	}
	return bestLag, bestCOR
}

// followRate is FollowRate(candidate, ls.target, lag, slack) over bitsets:
// a candidate fire at c hits when the target fires within
// [c+lag-slack, c+lag+slack], so the hits are popcount(C & F), F being the
// target's bits shifted down by every offset of that window and ORed — one
// pass over the words instead of one window per fire. A window reaching
// past 63 slots either way leaves the padding and merges.
func (ls *lagScanner) followRate(candidate trace.Series, lag, slack int32) float64 {
	if len(candidate) == 0 {
		return 0
	}
	klo, khi := int(lag)-int(slack), int(lag)+int(slack)
	if len(ls.target) == 0 || klo < -63 || khi > 63 {
		return FollowRate(candidate, ls.target, lag, slack)
	}
	ls.build()
	ls.setCandidate(candidate)
	tb, cb := ls.tbits, ls.cbits
	hits := 0
	for i, c := range cb {
		if c == 0 {
			continue
		}
		// Bit b of F is set when some target bit b+k is, klo <= k <= khi:
		// word i of T shifted down by k, its neighbours (zero beyond the
		// padding) supplying the bits that cross.
		var prev, next uint64
		if i > 0 {
			prev = tb[i-1]
		}
		if i+1 < len(tb) {
			next = tb[i+1]
		}
		t, f := tb[i], uint64(0)
		for k := klo; k <= khi; k++ {
			switch {
			case k > 0:
				f |= t>>uint(k) | next<<uint(64-k)
			case k < 0:
				f |= t<<uint(-k) | prev>>uint(64+k)
			default:
				f |= t
			}
		}
		hits += bits.OnesCount64(c & f)
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
