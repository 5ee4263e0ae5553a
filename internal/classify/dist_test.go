package classify

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/series"
	"repro/internal/stats"
)

// distQuantiles are the order statistics the deterministic pass reads: the
// regular spread's P5 and P95, the dense bound's P90, every profile's
// median, and the two ends.
var distQuantiles = []float64{0, 0.05, 0.5, 0.9, 0.95, 1}

// checkDistStats holds every statistic the deterministic pass reads off d to
// its sort-based reference over xs, the multiset d must hold.
func checkDistStats(t *testing.T, d dist, xs []int) {
	t.Helper()
	if d.n != len(xs) {
		t.Fatalf("dist of %v counts %d values", xs, d.n)
	}
	f := stats.IntsToFloats(xs)
	for _, q := range distQuantiles {
		got, want := d.quantile(q), stats.Quantile(f, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("quantile(%v) of %v = %v, stats.Quantile %v", q, xs, got, want)
		}
	}
	table := stats.FrequencyTable(xs)
	for k := 0; k <= 4; k++ {
		got := d.topModes(nil, k)
		if want := table[:min(k, len(table))]; !slices.Equal(got, want) {
			t.Fatalf("topModes(%d) of %v = %v, table head %v", k, xs, got, want)
		}
	}
	sorted := slices.Sorted(slices.Values(xs))
	if got, want := d.referenceMode(), series.MergeReferenceModeSorted(sorted); got != want {
		t.Fatalf("referenceMode of %v = %d, want %d", xs, got, want)
	}
	if got, _ := d.appendRepeated(nil, nil); !slices.Equal(got, stats.RepeatedValues(xs)) {
		t.Fatalf("appendRepeated of %v = %v, want %v", xs, got, stats.RepeatedValues(xs))
	}
	checkCVVerdict(t, d, xs, 0.01)
}

// checkCVVerdict holds the integer CV test to the float formula it stands
// in for and to the exact CV: a decided verdict must be the float formula's
// decision, the test must defer (cvFloat) wherever the exact CV² lies within
// half the band of bound², and decide wherever it lies twice the band away.
func checkCVVerdict(t *testing.T, d dist, xs []int, bound float64) cvVerdict {
	t.Helper()
	v := d.cvAtMost(bound)
	if len(xs) == 0 {
		return v
	}
	float := stats.CoefficientOfVariationInts(xs) <= bound
	if v != cvFloat && (v == cvPass) != float {
		t.Fatalf("CV verdict %d on %v, float formula says pass=%v", v, xs, float)
	}
	lo, hi := slices.Min(xs), slices.Max(xs)
	if lo < 0 || hi > math.MaxInt32 {
		if v != cvFloat {
			t.Fatalf("CV verdict %d on %v, out of the exact range", v, xs)
		}
		return v
	}
	// rel = CV² / bound² - 1, exactly: (nQ - S²) / (S² bound²) - 1.
	var s, q big.Int
	for _, x := range xs {
		bx := big.NewInt(int64(x))
		s.Add(&s, bx)
		q.Add(&q, new(big.Int).Mul(bx, bx))
	}
	if s.Sign() == 0 {
		if v != cvPass {
			t.Fatalf("CV verdict %d on all-zero %v", v, xs)
		}
		return v
	}
	ss := new(big.Int).Mul(&s, &s)
	dev := new(big.Int).Sub(new(big.Int).Mul(&q, big.NewInt(int64(len(xs)))), ss)
	b := new(big.Rat).SetFloat64(bound)
	rel := new(big.Rat).Quo(new(big.Rat).SetInt(dev), new(big.Rat).Mul(new(big.Rat).SetInt(ss), new(big.Rat).Mul(b, b)))
	rel.Sub(rel, big.NewRat(1, 1))
	r, _ := rel.Float64()
	switch {
	case math.Abs(r) < cvBand/2 && v != cvFloat:
		t.Fatalf("CV verdict %d on %v, CV²/bound² - 1 = %g is inside the band", v, xs, r)
	case math.Abs(r) > 2*cvBand && v == cvFloat:
		t.Fatalf("CV test deferred on %v, CV²/bound² - 1 = %g is outside the band", xs, r)
	}
	return v
}

// checkDist builds the distribution of xs and holds it, the trimmed
// variant's (minus the first and last values) and every suffix's (by
// removal, as the forgetting rule derives them) to the references. It
// returns whether the counting histogram built it.
func checkDist(t *testing.T, w *scratch, xs []int) (counting bool) {
	t.Helper()
	orig := slices.Clone(xs)
	d := w.distInto(0, xs)
	if !slices.Equal(xs, orig) {
		t.Fatal("distInto reordered its input")
	}
	checkDistStats(t, d, xs)
	if len(xs) > 2 {
		trimmed := w.withoutTwoInto(1, d, xs[0], xs[len(xs)-1])
		checkDistStats(t, trimmed, xs[1:len(xs)-1])
		checkDistStats(t, d, xs) // withoutTwoInto leaves d as it was
	}
	for cut := 0; cut < len(xs); {
		next := cut + 1 + (len(xs)-cut)/3
		d.remove(xs[cut:next]...)
		cut = next
		checkDistStats(t, d, xs[cut:])
	}
	if len(xs) == 0 {
		return false
	}
	return countingSortPays(len(xs), uint(slices.Max(xs))-uint(slices.Min(xs)))
}

// straddlingCV returns n values whose CV lies near 0.01: two values m-δ and
// m+δ' in proportions that put the CV at 0.01 up to the integer rounding of
// δ', then nudged by jitter.
func straddlingCV(rng *rand.Rand, n int) []int {
	m := 100 + rng.Intn(1<<31-1-200)
	if rng.Intn(3) == 0 {
		m = 100 + rng.Intn(10000)
	}
	lo := n / 2
	// With lo values at m-δ and n-lo at m+δ·lo/(n-lo), the mean is m and the
	// CV is δ·sqrt(lo/(n-lo))/m.
	delta := int(0.01 * float64(m) * math.Sqrt(float64(n-lo)/float64(lo)))
	xs := make([]int, n)
	for i := range xs {
		if i < lo {
			xs[i] = m - delta
		} else {
			xs[i] = min(m+delta*lo/(n-lo)+rng.Intn(3)-1, math.MaxInt32)
		}
	}
	rng.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

// TestDistMatchesSortReferences is the property test of the WT
// distribution: quantiles, frequency-table head, reference mode, repeated
// values and the CV verdict, of full sequences, trimmed variants and
// forgetting suffixes, against the sort-based references the deterministic
// pass used to read. The shapes reach both builders, narrow and wide value
// ranges, negative values, the extremes of int, WTs at 2^31-1, and
// sequences straddling CV = 0.01 in every verdict.
func TestDistMatchesSortReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var w scratch
	var builders [2]int
	var verdicts [3]int
	for trial := 0; trial < 3000; trial++ {
		var xs []int
		switch trial % 4 {
		case 0, 1:
			xs = make([]int, rng.Intn(200))
			spread := []int{1, 3, 40, 1000, 1 << 40}[rng.Intn(5)]
			base := rng.Intn(2000) - 1000
			for i := range xs {
				xs[i] = base + rng.Intn(spread)
			}
			if trial%100 == 0 && len(xs) > 1 {
				xs[0], xs[1] = math.MinInt, math.MaxInt // a spread past int's range
			}
		case 2: // near the top of the exact range
			xs = make([]int, 1+rng.Intn(50))
			for i := range xs {
				xs[i] = math.MaxInt32 - rng.Intn([]int{1, 3, 1 << 20}[rng.Intn(3)])
			}
		case 3:
			xs = straddlingCV(rng, 3+rng.Intn(60))
		}
		if checkDist(t, &w, xs) {
			builders[0]++
		} else if len(xs) > 0 {
			builders[1]++
		}
		if len(xs) > 0 {
			verdicts[checkCVVerdict(t, w.distInto(0, xs), xs, 0.01)]++
		}
	}
	// CV exactly 0.01 is inside the band whatever the scale.
	for k := 1; k <= 3; k++ {
		xs := []int{99 * k, 101 * k, 99 * k, 101 * k}
		if v := checkCVVerdict(t, w.distInto(0, xs), xs, 0.01); v != cvFloat {
			t.Fatalf("CV verdict %d on %v, whose CV is exactly 0.01", v, xs)
		}
	}
	t.Logf("builders: %d counting, %d comparison; CV verdicts: %d fail, %d pass, %d float", builders[0], builders[1], verdicts[cvFail], verdicts[cvPass], verdicts[cvFloat])
	if builders[0] == 0 || builders[1] == 0 || verdicts[cvFail] == 0 || verdicts[cvPass] == 0 || verdicts[cvFloat] == 0 {
		t.Fatalf("a path was never taken: builders %v, verdicts %v", builders, verdicts)
	}
}

// FuzzDist holds the WT distribution to the sort-based references over
// arbitrary sequences: each 4-byte group is one value, scaled down by the
// spread byte so narrow sequences (the counting builder) occur as often as
// wide ones.
func FuzzDist(f *testing.F) {
	le := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	f.Add(le(99, 101, 99, 101), uint8(0))                                 // CV exactly 0.01
	f.Add(le(math.MaxInt32, math.MaxInt32-1, math.MaxInt32, 5), uint8(0)) // WTs at 2^31-1
	f.Add(le(1440, 1439, 1, 1440, 1438, 2, 1440), uint8(0))               // the merge rule's shape
	f.Add(le(7, 7, 7), uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, spread uint8) {
		xs := make([]int, 0, len(data)/4)
		for i := 0; i+4 <= len(data); i += 4 {
			v := int64(int32(binary.LittleEndian.Uint32(data[i:])))
			xs = append(xs, int(v>>(spread%32)))
		}
		var w scratch
		checkDist(t, &w, xs)
	})
}

// TestCategorizeRegularOnCVBand runs a function whose WTs alternate 99 and
// 101 — CV exactly 0.01, inside the integer test's band — through the
// categorizer and the oracle: the float formula decides it, and both call
// it regular.
func TestCategorizeRegularOnCVBand(t *testing.T) {
	counts := make([]int, 3*1440)
	for slot, i := 0, 0; i < 41; i++ {
		counts[slot] = 1
		slot += 100 + 2*(i%2)
	}
	p, ok := categorizeCounts(t, counts)
	if !ok || p.Type != TypeRegular || !reflect.DeepEqual(p.Values, []int{100}) {
		t.Fatalf("99/101 alternation -> %+v (%v), want regular at 100", p, ok)
	}
}
