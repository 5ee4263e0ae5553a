package classify

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/stats"
)

// dist is a WT multiset in value order: its distinct values ascending, each
// with its count, and the total count. It is the one form every WT statistic
// of the deterministic pass is read from — order statistics, the frequency
// table's head, the merge rule's reference mode, the integer moments of the
// CV test — each in O(distinct values) rather than O(WTs).
//
// An entry whose count removals took to zero stays in place (remove,
// withoutTwoInto), so a value's position never moves; every reader skips it.
type dist struct {
	e []stats.ModeCount // Value ascending and distinct; Count >= 0
	n int               // sum of the counts
}

// distInto returns the distribution of xs in slot's buffer of w. When the
// values span a range small against their count — waiting times mostly do —
// it is read off a counting histogram held in w; otherwise a sorted copy is
// run-length scanned. Either way the result is the same.
func (w *scratch) distInto(slot int, xs []int) dist {
	if len(xs) == 0 {
		return dist{e: w.dists[slot][:0]}
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	spread := uint(hi) - uint(lo) // exact for any lo <= hi, even where hi-lo overflows int
	counting := countingSortPays(len(xs), spread)
	distinct := len(xs)
	if counting {
		distinct = min(distinct, int(spread)+1)
	}
	w.dists[slot] = sized(w.dists[slot], distinct)
	e := w.dists[slot]
	k := 0
	if counting {
		w.hist = sized(w.hist, int(spread)+1)
		hist := w.hist
		clear(hist)
		for _, x := range xs {
			hist[x-lo]++
		}
		for v, c := range hist {
			if c > 0 {
				e[k] = stats.ModeCount{Value: lo + v, Count: c}
				k++
			}
		}
	} else {
		w.sortBuf = sized(w.sortBuf, len(xs))
		sorted := w.sortBuf
		copy(sorted, xs)
		slices.Sort(sorted)
		for i := 0; i < len(sorted); {
			j := i + 1
			for j < len(sorted) && sorted[j] == sorted[i] {
				j++
			}
			e[k] = stats.ModeCount{Value: sorted[i], Count: j - i}
			k++
			i = j
		}
	}
	return dist{e: e[:k], n: len(xs)}
}

// withoutTwoInto returns d minus one occurrence each of a and b (both of
// which must be present) in slot's buffer of w; d is left as it is.
func (w *scratch) withoutTwoInto(slot int, d dist, a, b int) dist {
	w.dists[slot] = sized(w.dists[slot], len(d.e))
	out := dist{e: w.dists[slot], n: d.n}
	copy(out.e, d.e)
	out.remove(a)
	out.remove(b)
	return out
}

// remove takes one occurrence of each of xs (all present) out of d, in
// place.
func (d *dist) remove(xs ...int) {
	for _, x := range xs {
		i := sort.Search(len(d.e), func(i int) bool { return d.e[i].Value >= x })
		d.e[i].Count--
	}
	d.n -= len(xs)
}

// minVal and maxVal are the smallest and largest values present; d must not
// be empty.
func (d dist) minVal() int {
	i := 0
	for d.e[i].Count == 0 {
		i++
	}
	return d.e[i].Value
}

func (d dist) maxVal() int {
	i := len(d.e) - 1
	for d.e[i].Count == 0 {
		i--
	}
	return d.e[i].Value
}

// pairAt returns the values at ranks k and k+1 (0-based, k+1 < d.n) of d's
// ascending expansion, walking from whichever end is nearer.
func (d dist) pairAt(k int) (a, b int) {
	e := d.e
	if k < d.n/2 {
		cum := 0
		for i := 0; ; i++ {
			if cum += e[i].Count; cum > k {
				if cum > k+1 {
					return e[i].Value, e[i].Value
				}
				a = e[i].Value
				for i++; e[i].Count == 0; i++ {
				}
				return a, e[i].Value
			}
		}
	}
	// above counts the values past entry i; rank k+1 has d.n-2-k above it.
	above, r := 0, d.n-2-k
	for i := len(e) - 1; ; i-- {
		if above += e[i].Count; above > r {
			if above > r+1 {
				return e[i].Value, e[i].Value
			}
			b = e[i].Value
			for i--; e[i].Count == 0; i-- {
			}
			return e[i].Value, b
		}
	}
}

// quantile is stats.Quantile over the float copy of d's values: the same
// order statistics fed to the same linear interpolation, bit for bit.
func (d dist) quantile(q float64) float64 {
	n := d.n
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return float64(d.minVal())
	}
	if q >= 1 {
		return float64(d.maxVal())
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo+1 >= n {
		return float64(d.maxVal())
	}
	frac := pos - float64(lo)
	a, b := d.pairAt(lo)
	return float64(a)*(1-frac) + float64(b)*frac
}

// referenceMode is series.MergeReferenceModeSorted of d's ascending
// expansion: among the most frequent values, the largest (0 when d is
// empty).
func (d dist) referenceMode() int {
	bestVal, bestCount := 0, 0
	for _, mc := range d.e {
		if mc.Count > 0 && mc.Count >= bestCount {
			bestVal, bestCount = mc.Value, mc.Count
		}
	}
	return bestVal
}

// topModes appends to dst the first k entries of stats.FrequencyTable of d's
// values (count descending, value ascending among ties), fewer when d has
// fewer distinct values. It inserts into the k-entry head as it walks the
// ascending values, so a later value displaces an entry only with a
// strictly larger count.
func (d dist) topModes(dst []stats.ModeCount, k int) []stats.ModeCount {
	base := len(dst)
	for _, mc := range d.e {
		if mc.Count == 0 {
			continue
		}
		head := dst[base:]
		if len(head) == k {
			if k == 0 || mc.Count <= head[k-1].Count {
				continue
			}
			dst = dst[:len(dst)-1]
			head = head[:k-1]
		}
		i := len(head)
		for i > 0 && head[i-1].Count < mc.Count {
			i--
		}
		dst = slices.Insert(dst, base+i, mc)
	}
	return dst
}

// appendRepeated appends stats.RepeatedValues of d's values to dst: those
// occurring more than once, in frequency-table order. table is scratch for
// the sort; the grown buffer is returned with the values.
func (d dist) appendRepeated(dst []int, table []stats.ModeCount) ([]int, []stats.ModeCount) {
	table = table[:0]
	for _, mc := range d.e {
		if mc.Count > 1 {
			table = append(table, mc)
		}
	}
	slices.SortFunc(table, func(a, b stats.ModeCount) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return cmp.Compare(a.Value, b.Value)
	})
	for _, mc := range table {
		dst = append(dst, mc.Value)
	}
	return dst, table
}

// cvVerdict is the outcome of the integer CV test.
type cvVerdict uint8

const (
	cvFail  cvVerdict = iota // CV > bound
	cvPass                   // CV <= bound
	cvFloat                  // undecided: stats.CoefficientOfVariationInts over the original order decides
)

// cvBand is the relative half-width, on CV², of the band around the bound
// inside which the integer test leaves the decision to the float formula.
// The float formula's own relative error on CV is below 2^-31 over the
// range cvDecide accepts (DESIGN.md, "One distribution per WT variant"), so
// outside the band both decide alike.
const cvBand = 0x1p-20

// cvAtMost decides CV(values) <= bound for the multiset d from its exact
// integer moments. It decides in the float formula's stead only within the
// range the exactness argument covers: fewer than 2^22 values, each in
// [0, 2^31), and a bound in [2^-20, 2^20].
func (d dist) cvAtMost(bound float64) cvVerdict {
	if d.n == 0 || d.n >= 1<<22 || !(bound >= 0x1p-20 && bound <= 0x1p20) ||
		d.minVal() < 0 || d.maxVal() > 1<<31-1 {
		return cvFloat
	}
	// S = Σx < 2^53 and Q = Σx² < 2^84, Q as a 128-bit (qHi, qLo).
	var s, qHi, qLo uint64
	for _, mc := range d.e {
		v, c := uint64(mc.Value), uint64(mc.Count)
		s += v * c
		h, l := bits.Mul64(v*v, c)
		var carry uint64
		qLo, carry = bits.Add64(qLo, l, 0)
		qHi += h + carry
	}
	return cvDecide(uint64(d.n), s, qHi, qLo, bound)
}

// cvDecide is cvAtMost's arithmetic: n values with sum s and sum of squares
// (qHi, qLo), all within cvAtMost's range. CV² = (nQ - S²) / S², both terms
// exact in 128 bits (nQ, S² < 2^106); their float quotient is within 6 ulp
// of CV², far inside cvBand.
func cvDecide(n, s, qHi, qLo uint64, bound float64) cvVerdict {
	if s == 0 {
		return cvPass // every value is 0: the float formula's CV is 0
	}
	nqHi, nqLo := bits.Mul64(qLo, n)
	nqHi += qHi * n
	ssHi, ssLo := bits.Mul64(s, s)
	dLo, borrow := bits.Sub64(nqLo, ssLo, 0)
	dHi, _ := bits.Sub64(nqHi, ssHi, borrow)
	r := u128Float(dHi, dLo) / u128Float(ssHi, ssLo)
	t2 := bound * bound
	switch {
	case r <= t2*(1-cvBand):
		return cvPass
	case r >= t2*(1+cvBand):
		return cvFail
	}
	return cvFloat
}

// u128Float converts hi*2^64 + lo, hi < 2^53, to float64 within 2 ulp.
func u128Float(hi, lo uint64) float64 {
	return float64(hi)*0x1p64 + float64(lo)
}
