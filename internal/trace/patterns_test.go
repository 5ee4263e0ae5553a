package trace

import (
	"testing"

	"repro/internal/series"
	"repro/internal/stats"
)

const testSlots = 4 * 1440

func denseOf(events []Event, slots int) []int {
	return Series(normalize(append([]Event(nil), events...))).Dense(slots)
}

func TestGenAlwaysOn(t *testing.T) {
	g := stats.NewRNG(1)
	events := genAlwaysOn(nil, g, testSlots)
	act := series.Extract(denseOf(events, testSlots))
	// Idle time must stay at or under roughly one-thousandth of the window.
	if act.TotalWT() > testSlots/200 {
		t.Errorf("always-on total WT = %d, too idle", act.TotalWT())
	}
	if act.Invocations < testSlots/2 {
		t.Errorf("always-on invocations = %d, too few", act.Invocations)
	}
}

func TestGenPeriodic(t *testing.T) {
	g := stats.NewRNG(2)
	events := genPeriodicWithPeriod(nil, g, testSlots, 30)
	act := series.Extract(denseOf(events, testSlots))
	if len(act.WT) < 50 {
		t.Fatalf("periodic WT count = %d", len(act.WT))
	}
	mode, count := stats.Mode(act.WT)
	if mode < 28 || mode > 31 {
		t.Errorf("periodic WT mode = %d, want ~29 (period 30)", mode)
	}
	if frac := float64(count) / float64(len(act.WT)); frac < 0.6 {
		t.Errorf("mode coverage = %v, want dominated by the period", frac)
	}
}

func TestGenQuasiPeriodic(t *testing.T) {
	g := stats.NewRNG(3)
	events := genQuasiPeriodic(nil, g, testSlots)
	act := series.Extract(denseOf(events, testSlots))
	if len(act.WT) < 5 {
		t.Skip("sampled a long base period; not enough WTs to assert on")
	}
	// Gaps concentrate on a few adjacent values: top-4 modes should cover
	// most of the sequence.
	cov := stats.ModesCoverage(act.WT, 4)
	if frac := float64(cov) / float64(len(act.WT)); frac < 0.8 {
		t.Errorf("quasi-periodic top-4 mode coverage = %v, want >= 0.8", frac)
	}
}

func TestGenDense(t *testing.T) {
	g := stats.NewRNG(4)
	events := genDense(nil, g, testSlots)
	act := series.Extract(denseOf(events, testSlots))
	if len(act.WT) < 20 {
		t.Fatalf("dense WT count = %d", len(act.WT))
	}
	p90 := stats.Quantile(stats.IntsToFloats(act.WT), 0.9)
	if p90 > 6 {
		t.Errorf("dense P90(WT) = %v, want small", p90)
	}
}

func TestGenBursty(t *testing.T) {
	g := stats.NewRNG(5)
	events := genBursty(nil, g, testSlots)
	act := series.Extract(denseOf(events, testSlots))
	if len(act.AT) == 0 {
		t.Skip("no waves landed in window for this seed")
	}
	minAT, _ := stats.MinMaxInts(act.AT)
	if minAT < 3 {
		t.Errorf("bursty min AT = %d, want sustained waves", minAT)
	}
	minAN, _ := stats.MinMaxInts(act.AN)
	if minAN < 4 {
		t.Errorf("bursty min AN = %d, want busy waves", minAN)
	}
	// Long silences between waves.
	if len(act.WT) > 0 {
		_, maxWT := stats.MinMaxInts(act.WT)
		if maxWT < 100 {
			t.Errorf("bursty max WT = %d, want long silences", maxWT)
		}
	}
}

func TestGenPulsedAndRare(t *testing.T) {
	g := stats.NewRNG(6)
	pulsed := denseOf(genPulsed(nil, g, testSlots), testSlots)
	act := series.Extract(pulsed)
	if act.Invocations == 0 {
		t.Error("pulsed generated nothing")
	}
	rareEvents := genRare(nil, stats.NewRNG(7), testSlots)
	if len(rareEvents) == 0 || len(rareEvents) > 20 {
		t.Errorf("rare event count = %d, want a handful", len(rareEvents))
	}
}

func TestGenRareRepeatingGap(t *testing.T) {
	// Across seeds, some rare functions must expose a duplicated WT (the
	// "possible" type's prerequisite).
	found := false
	for seed := int64(0); seed < 30 && !found; seed++ {
		events := genRare(nil, stats.NewRNG(seed), testSlots)
		act := series.Extract(denseOf(events, testSlots))
		if len(stats.RepeatedValues(act.WT)) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no rare function with duplicated WT in 30 seeds")
	}
}

func TestSynthesizeDispatch(t *testing.T) {
	for a := Archetype(0); a < numArchetypes; a++ {
		g := stats.NewRNG(int64(a) + 100)
		events := synthesize(nil, a, g, 1440)
		if a == ArchSilent {
			if len(events) != 0 {
				t.Errorf("silent archetype produced events")
			}
			continue
		}
		if len(events) == 0 && a != ArchRare && a != ArchBursty && a != ArchPulsed {
			t.Errorf("%v produced no events", a)
		}
		for _, e := range events {
			if int(e.Slot) >= 1440 || e.Slot < 0 {
				t.Errorf("%v event out of range: %d", a, e.Slot)
			}
		}
	}
	if got := synthesize(nil, Archetype(99), stats.NewRNG(1), 100); got != nil {
		t.Error("unknown archetype should synthesize nothing")
	}
}

func TestApplyShiftChangesBehaviour(t *testing.T) {
	g := stats.NewRNG(8)
	base := genPeriodicWithPeriod(nil, g, testSlots, 10)
	// applyShift rewrites its input in place; shift a copy.
	shifted := applyShift(g, append([]Event(nil), base...), testSlots)
	// The shifted series must differ from the base in its tail.
	baseDense := denseOf(base, testSlots)
	shiftDense := denseOf(shifted, testSlots)
	diff := 0
	for i := testSlots / 2; i < testSlots; i++ {
		if baseDense[i] != shiftDense[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("applyShift left the tail identical")
	}
	// Short series pass through untouched.
	tiny := []Event{{Slot: 1, Count: 1}}
	if got := applyShift(g, tiny, testSlots); len(got) != 1 {
		t.Errorf("applyShift(tiny) = %v", got)
	}
}
