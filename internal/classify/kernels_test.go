package classify

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/trace"
)

// randomSeries returns n distinct slots of [0, slots) drawn uniformly, in
// ascending order, one invocation each.
func randomSeries(rng *rand.Rand, n, slots int) trace.Series {
	n = min(n, slots)
	picked := rng.Perm(slots)[:n]
	slices.Sort(picked)
	s := make(trace.Series, n)
	for i, slot := range picked {
		s[i] = trace.Event{Slot: int32(slot), Count: 1}
	}
	return s
}

// gapSeries decodes a fuzz input into an ascending series: each byte is the
// idle gap before the next fire, the first fire sitting at slot data[0].
func gapSeries(data []byte) trace.Series {
	var s trace.Series
	slot := -1
	for _, b := range data {
		slot += 1 + int(b)
		s = append(s, trace.Event{Slot: int32(slot), Count: 1})
	}
	return s
}

// checkLagScan holds the bitset kernels to the merge forms for one pair:
// the same best lag and COR bits for maxLag, and the same follow rate at
// the best lag and at lag with the given slack.
//
// Both sides are also read as two parts, each split at its middle event:
// the merge and bitset forms over the split pair must give the one-part
// pair's results.
func checkLagScan(t *testing.T, target, cand trace.Series, maxLag, lag, slack int32) {
	t.Helper()
	checkLagScanParts(t, one(target), one(cand), maxLag, lag, slack)
	wantLag, wantCOR := BestLaggedCOR(one(target), one(cand), maxLag)
	tp, cp := split(target, len(target)/2), split(cand, (len(cand)+1)/2)
	if gotLag, gotCOR := BestLaggedCOR(tp, cp, maxLag); gotLag != wantLag || gotCOR != wantCOR {
		t.Fatalf("maxLag %d: merge over split parts = (%d, %v), over one part (%d, %v)", maxLag, gotLag, gotCOR, wantLag, wantCOR)
	}
	for _, l := range []int32{wantLag, lag} {
		if got, want := FollowRate(cp, tp, l, slack), FollowRate(one(cand), one(target), l, slack); got != want {
			t.Fatalf("lag %d slack %d: follow rate over split parts %v, over one part %v", l, slack, got, want)
		}
	}
	checkLagScanParts(t, tp, cp, maxLag, lag, slack)
}

// checkLagScanParts is checkLagScan's comparison for one reading of the
// pair.
func checkLagScanParts(t *testing.T, target, cand trace.Parts, maxLag, lag, slack int32) {
	t.Helper()
	var ls lagScanner
	ls.reset(target)
	wantLag, wantCOR := BestLaggedCOR(target, cand, maxLag)
	ls.setCandidate(cand)
	gotLag, gotCOR := ls.bestLaggedCOR(maxLag)
	if gotLag != wantLag || math.Float64bits(gotCOR) != math.Float64bits(wantCOR) {
		t.Fatalf("maxLag %d: bitset scan = (%d, %v), merge (%d, %v)\ntarget %v\ncand %v",
			maxLag, gotLag, gotCOR, wantLag, wantCOR, target, cand)
	}
	if target.Len() > 0 && !ls.built {
		t.Fatal("a bitset scan left the target's bitset unbuilt")
	}
	for _, l := range []int32{wantLag, lag} {
		want := FollowRate(cand, target, l, slack)
		if got := ls.followRate(l, slack); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("lag %d slack %d: bitset follow rate %v, merge %v\ntarget %v\ncand %v",
				l, slack, got, want, target, cand)
		}
	}
}

// TestLagScanMatchesMerge is the property test of the bitset lag scan over
// spans on and around word boundaries, densities from a few fires to every
// slot, every lag bound 1..63 and follow windows up to past one word.
func TestLagScanMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		slots := []int{1, 63, 64, 65, 127, 128, 129, 700, 3000}[rng.Intn(9)]
		target := randomSeries(rng, rng.Intn(slots+1), slots)
		// A candidate may run past the target's last fire, or sit wholly
		// before or after it.
		candSlots := slots + rng.Intn(200)
		cand := randomSeries(rng, rng.Intn(candSlots+1), candSlots)
		slack := int32(rng.Intn(8)) - 1
		if rng.Intn(10) == 0 {
			slack = 32 + int32(rng.Intn(4)) // a window wider than a word
		}
		maxLag := int32(1 + trial%63)
		checkLagScan(t, target, cand, maxLag, int32(rng.Intn(64)), slack)
	}
}

// FuzzLagScan holds the bitset lag scan and follow rate to the merge forms
// over arbitrary ascending series. Its seeds put fires on slots 0, 63, 64
// and 127, run the candidate past the target's last fire, and leave either
// side empty.
func FuzzLagScan(f *testing.F) {
	f.Add([]byte{0, 62, 0, 62}, []byte{0, 62, 0, 62}, uint8(0), uint8(1), uint8(2))    // 0, 63, 64, 127 on both sides
	f.Add([]byte{63, 0}, []byte{0, 62, 0, 62, 0, 200}, uint8(62), uint8(63), uint8(3)) // candidate past the target's end
	f.Add([]byte{}, []byte{5, 6}, uint8(9), uint8(2), uint8(1))                        // empty target
	f.Add([]byte{5, 6}, []byte{}, uint8(9), uint8(2), uint8(1))                        // empty candidate
	f.Add([]byte{64, 0, 0, 0, 0, 60}, []byte{55, 0, 0, 1, 2, 3, 4}, uint8(20), uint8(9), uint8(0))
	f.Fuzz(func(t *testing.T, tgt, cand []byte, maxLag, lag, slack uint8) {
		checkLagScan(t, gapSeries(tgt), gapSeries(cand), 1+int32(maxLag%63), int32(lag%64), int32(slack%40)-1)
	})
}

// TestSpanUnionMatchesSortedMerge holds scoreCorrelated's k-way union to the
// sort-then-merge reference, with up to more candidates than maxLinks,
// non-positive lags, fires the window clips away, and empty candidates.
func TestSpanUnionMatchesSortedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var w scratch
	for trial := 0; trial < 3000; trial++ {
		slots := 1 + rng.Intn(300)
		target := one(randomSeries(rng, rng.Intn(slots+1), slots))
		var cands []trace.Parts
		var links []Link
		for c := rng.Intn(maxLinks + 3); c > 0; c-- {
			n := rng.Intn(60)
			cands = append(cands, one(randomSeries(rng, n, slots+10)))
			links = append(links, Link{Lag: int32(rng.Intn(14)) - 2})
		}
		if rng.Intn(5) == 0 {
			links = links[:len(links)/2] // a missing lag reads as 1
		}
		prewarm := int32(rng.Intn(6))
		got := w.scoreCorrelated(target, cands, links, slots, prewarm)
		if want := scoreCorrelatedRef(target, cands, links, slots, prewarm); got != want {
			t.Fatalf("scoreCorrelated = %+v, sorted merge %+v (slots %d, prewarm %d, links %v)",
				got, want, slots, prewarm, links)
		}
	}
}

// benchRate keeps the benchmarks' results live.
var benchRate float64

// BenchmarkLagScan times one candidate pair's lag scan and precision gate
// under each kernel: a sparse pair the size of the drift window's average
// (436 target and 756 candidate fires over 12 days) and a dense one. The
// bitset form's target bitset is built before the clock starts, as it is
// once per target in mineLinks.
func BenchmarkLagScan(b *testing.B) {
	const slots = 12 * 1440
	cfg := DefaultConfig()
	for _, shape := range []struct {
		name         string
		target, cand int
	}{{"sparse", 436, 756}, {"dense", 6000, 9000}} {
		rng := rand.New(rand.NewSource(1))
		target := randomSeries(rng, shape.target, slots)
		cand := randomSeries(rng, shape.cand, slots)
		b.Run(shape.name+"/merge", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lag, _ := BestLaggedCOR(one(target), one(cand), cfg.MaxLag)
				benchRate = FollowRate(one(cand), one(target), lag, 2)
			}
		})
		b.Run(shape.name+"/bitset", func(b *testing.B) {
			var ls lagScanner
			ls.reset(one(target))
			ls.build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ls.setCandidate(one(cand)) // each pair sets its candidate's bits
				lag, _ := ls.bestLaggedCOR(cfg.MaxLag)
				benchRate = ls.followRate(lag, 2)
			}
		})
	}
}
