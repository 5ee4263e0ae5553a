package classify

import (
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// seq builds a dense sequence of the given length with invocations at the
// given slots (count 1 unless a map of counts is supplied).
func seq(slots int, at ...int) []int {
	out := make([]int, slots)
	for _, s := range at {
		out[s] = 1
	}
	return out
}

// periodicSeq builds a strictly periodic sequence.
func periodicSeq(slots, period, phase int) []int {
	out := make([]int, slots)
	for t := phase; t < slots; t += period {
		out[t] = 1
	}
	return out
}

// categorizeCounts runs the categorizer's deterministic pass over a dense
// sequence, as Categorize runs it on a window without forgetting, and holds
// its outcome to the oracle's.
func categorizeCounts(t *testing.T, counts []int) (Profile, bool) {
	t.Helper()
	var s trace.Series
	for slot, c := range counts {
		if c > 0 {
			s = append(s, trace.Event{Slot: int32(slot), Count: int32(c)})
		}
	}
	var w scratch
	p, ok := alwaysWarmFast(one(s), len(counts))
	if !ok {
		act := w.extractWindow(one(s), 0, len(counts))
		p, ok = w.categorizeActivity(act, w.distInto(0, act.WT))
	}
	if want, wantOK := oracleDeterministic(counts); ok != wantOK || !reflect.DeepEqual(p, want) {
		t.Fatalf("categorizeActivity = %+v (%v), oracle %+v (%v)", p, ok, want, wantOK)
	}
	return p, ok
}

// deterministic reports whether ty is one of the five pattern-defined
// categories of Section IV-A.
func deterministic(ty Type) bool {
	switch ty {
	case TypeAlwaysWarm, TypeRegular, TypeApproRegular, TypeDense, TypeSuccessive:
		return true
	}
	return false
}

func TestTypeString(t *testing.T) {
	if TypeRegular.String() != "regular" || TypeUnknown.String() != "unknown" {
		t.Error("type names wrong")
	}
	if Type(99).String() == "" {
		t.Error("unknown type should still render")
	}
	if !deterministic(TypeDense) || deterministic(TypePulsed) {
		t.Error("deterministic() wrong")
	}
}

func TestCategorizeAlwaysWarm(t *testing.T) {
	// Invoked at every slot.
	counts := make([]int, 2000)
	for i := range counts {
		counts[i] = 2
	}
	p, ok := categorizeCounts(t, counts)
	if !ok || p.Type != TypeAlwaysWarm {
		t.Fatalf("full activity -> %v (%v), want always-warm", p.Type, ok)
	}
	// One idle slot in 2000 (1/2000 < 1/1000... idle sum is 1 <= 2).
	counts[1000] = 0
	p, ok = categorizeCounts(t, counts)
	if !ok || p.Type != TypeAlwaysWarm {
		t.Fatalf("nearly full activity -> %v (%v), want always-warm", p.Type, ok)
	}
}

func TestCategorizeAlwaysWarmRejectsShortFlurry(t *testing.T) {
	// Two adjacent invocations in a long window: summed WT is 0 but this is
	// clearly not an always-warm function.
	counts := seq(5000, 100, 101)
	p, ok := categorizeCounts(t, counts)
	if ok && p.Type == TypeAlwaysWarm {
		t.Fatal("short flurry misclassified as always-warm")
	}
}

func TestCategorizeRegular(t *testing.T) {
	p, ok := categorizeCounts(t, periodicSeq(1440*2, 60, 5))
	if !ok || p.Type != TypeRegular {
		t.Fatalf("periodic -> %v (%v), want regular", p.Type, ok)
	}
	// WT of a 60-period sequence is 59.
	if len(p.Values) != 1 || p.Values[0] != 59 {
		t.Errorf("regular predictive values = %v, want [59]", p.Values)
	}
	if p.MedianWT != 59 {
		t.Errorf("MedianWT = %v", p.MedianWT)
	}
}

func TestCategorizeRegularViaMerging(t *testing.T) {
	// Daily timer with stray invocations one slot after two firings: raw WTs
	// are irregular, merging restores the period (the paper's example).
	slots := 10 * 1440
	counts := make([]int, slots)
	for d := 0; d < 10; d++ {
		counts[d*1440] = 1
	}
	counts[2*1440+1] = 1 // stray right after day-2 firing
	counts[5*1440+1] = 1
	p, ok := categorizeCounts(t, counts)
	if !ok || p.Type != TypeRegular {
		t.Fatalf("merged daily -> %v (%v), want regular", p.Type, ok)
	}
}

func TestCategorizeApproRegular(t *testing.T) {
	// Gaps alternate among {10, 12, 14}: not regular (spread 4), but top-3
	// modes cover 100%.
	slots := 5000
	counts := make([]int, slots)
	gaps := []int{10, 12, 14}
	t0 := 0
	i := 0
	for t0 < slots {
		counts[t0] = 1
		t0 += gaps[i%3] + 1
		i++
	}
	p, ok := categorizeCounts(t, counts)
	if !ok || p.Type != TypeApproRegular {
		t.Fatalf("quasi-periodic -> %v (%v), want appro-regular", p.Type, ok)
	}
	if len(p.Values) == 0 || len(p.Values) > approModes {
		t.Errorf("appro values = %v", p.Values)
	}
	for _, v := range p.Values {
		if v != 10 && v != 12 && v != 14 {
			t.Errorf("unexpected predictive value %d", v)
		}
	}
}

func TestCategorizeDense(t *testing.T) {
	// Busy with idle gaps of 1-3 slots, irregularly mixed: too spread for
	// appro-regular's n modes? Gaps of {1,2,3,4,5} uniformly: 5 distinct
	// values, top-3 cover 60% < 90%, and P90 <= 5 -> dense.
	slots := 6000
	counts := make([]int, slots)
	g := stats.NewRNG(5)
	t0 := 0
	for t0 < slots {
		counts[t0] = 1 + g.Intn(3)
		t0 += 1 + g.IntBetween(1, 5)
	}
	p, ok := categorizeCounts(t, counts)
	if !ok || p.Type != TypeDense {
		t.Fatalf("dense -> %v (%v), want dense", p.Type, ok)
	}
	if p.RangeLo < 1 || p.RangeHi > 5 || p.RangeLo > p.RangeHi {
		t.Errorf("dense range = [%d, %d]", p.RangeLo, p.RangeHi)
	}
}

func TestCategorizeSuccessive(t *testing.T) {
	slots := 8000
	counts := make([]int, slots)
	// Three waves of 10 busy slots x 3 invocations, separated by ~2000 idle.
	for _, start := range []int{500, 3000, 6000} {
		for i := 0; i < 10; i++ {
			counts[start+i] = 3
		}
	}
	p, ok := categorizeCounts(t, counts)
	if !ok || p.Type != TypeSuccessive {
		t.Fatalf("bursty -> %v (%v), want successive", p.Type, ok)
	}
}

func TestCategorizeSuccessiveRejectsSingleWave(t *testing.T) {
	slots := 8000
	counts := make([]int, slots)
	for i := 0; i < 10; i++ {
		counts[4000+i] = 3
	}
	p, ok := categorizeCounts(t, counts)
	if ok && p.Type == TypeSuccessive {
		t.Fatal("single wave should not be successive")
	}
}

func TestCategorizeRejectsIrregular(t *testing.T) {
	// A handful of scattered invocations with wildly different gaps.
	counts := seq(20000, 100, 3000, 3700, 9100, 19000)
	if p, ok := categorizeCounts(t, counts); ok {
		t.Fatalf("scattered -> %v, want uncategorized", p.Type)
	}
	// Empty sequence.
	if _, ok := categorizeCounts(t, make([]int, 100)); ok {
		t.Fatal("silent sequence should not categorize")
	}
}

func TestCategorizePriorityOrder(t *testing.T) {
	// A sequence invoked at every slot satisfies always-warm AND would have
	// no WTs; priority gives always-warm.
	counts := make([]int, 1000)
	for i := range counts {
		counts[i] = 1
	}
	p, _ := categorizeCounts(t, counts)
	if p.Type != TypeAlwaysWarm {
		t.Errorf("priority = %v, want always-warm first", p.Type)
	}
	// A strictly periodic function also satisfies appro-regular (one mode
	// covers 100%); priority gives regular.
	p, _ = categorizeCounts(t, periodicSeq(2880, 30, 0))
	if p.Type != TypeRegular {
		t.Errorf("priority = %v, want regular before appro-regular", p.Type)
	}
	// Gaps uniform over {1,2,3}: too spread for regular (P95-P5 = 2), but
	// three modes cover 100% -> appro-regular, which outranks dense even
	// though P90(WT) <= 5 also holds.
	slots := 3000
	counts = make([]int, slots)
	g := stats.NewRNG(7)
	t0 := 0
	for t0 < slots {
		counts[t0] = 1
		t0 += 1 + g.IntBetween(1, 3)
	}
	p, ok := categorizeCounts(t, counts)
	if !ok {
		t.Fatal("gap-1-3 sequence should categorize")
	}
	if p.Type != TypeApproRegular {
		t.Errorf("gap-1-3 -> %v, want appro-regular (priority before dense)", p.Type)
	}
}

func TestCategorizeWithForgetting(t *testing.T) {
	// 10 days: first 4 days chaotic, last 6 days strictly periodic. The
	// full window fails, dropping old days recovers regularity.
	slots := 10 * 1440
	counts := make([]int, slots)
	g := stats.NewRNG(11)
	for i := 0; i < 40; i++ { // chaos in days 0-3
		counts[g.Intn(4*1440)] = 1
	}
	for t0 := 4 * 1440; t0 < slots; t0 += 120 {
		counts[t0] = 1
	}
	if _, ok := categorizeCounts(t, counts); ok {
		t.Skip("full window categorized already; chaos too mild for this seed")
	}
	p, ok := oracleWithForgetting(counts)
	if !ok {
		t.Fatal("forgetting failed to categorize")
	}
	if p.Type != TypeRegular && p.Type != TypeApproRegular {
		t.Errorf("forgetting -> %v, want (appro-)regular", p.Type)
	}
}

func TestCategorizeWithForgettingBoundedAtHalf(t *testing.T) {
	// Chaotic through day 6 of 10, periodic after: forgetting may only drop
	// up to day 5, so the function must stay uncategorized.
	slots := 10 * 1440
	counts := make([]int, slots)
	g := stats.NewRNG(13)
	for i := 0; i < 200; i++ {
		counts[g.Intn(6*1440)] = 1
	}
	for t0 := 6 * 1440; t0 < slots; t0 += 240 {
		counts[t0] = 1
	}
	if _, ok := oracleWithForgetting(counts); ok {
		t.Fatal("forgetting exceeded the half-window bound")
	}
}

func TestThetaGivenup(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ThetaGivenup(TypeDense) != 5 || cfg.ThetaGivenup(TypePulsed) != 5 {
		t.Error("dense/pulsed patience should be 5")
	}
	if cfg.ThetaGivenup(TypeRegular) != 1 || cfg.ThetaGivenup(TypeUnknown) != 1 {
		t.Error("other patience should be 1")
	}
}
