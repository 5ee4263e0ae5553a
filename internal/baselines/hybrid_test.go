package baselines

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// periodicTrace returns train+sim halves with one function invoked every
// `period` slots throughout both halves.
func periodicTrace(halfSlots, period int) (*trace.Trace, *trace.Trace) {
	full := trace.NewTrace(2 * halfSlots)
	var events []trace.Event
	for s := 0; s < 2*halfSlots; s += period {
		events = append(events, trace.Event{Slot: int32(s), Count: 1})
	}
	full.AddFunction("f", "app", "u", trace.TriggerTimer, events)
	return full.Split(halfSlots)
}

func TestHybridFunctionLearnsPeriodicPattern(t *testing.T) {
	train, simTr := periodicTrace(4*1440, 60)
	p := NewHybridFunction()
	res, err := sim.Run(p, train, simTr, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The 60-minute IAT histogram is sharply peaked: prewarm ~54 (P5=60
	// shrunk 10%), keep-alive through ~66. Every invocation lands warm.
	if res.PerFunc[0].ColdStarts > 1 {
		t.Errorf("cold starts = %d, want <= 1", res.PerFunc[0].ColdStarts)
	}
	// Memory footprint must be far below keep-everything (window ~12 of
	// every 60 slots).
	if res.TotalMemory > int64(simTr.Slots)/2 {
		t.Errorf("memory = %d, want well below %d", res.TotalMemory, simTr.Slots)
	}
}

func TestHybridFallbackForIrregular(t *testing.T) {
	// A function with too few invocations: fallback keep-alive (240 min).
	full := trace.NewTrace(4 * 1440)
	full.AddFunction("f", "app", "u", trace.TriggerHTTP, []trace.Event{
		{Slot: 100, Count: 1}, {Slot: 2*1440 + 100, Count: 1}, {Slot: 2*1440 + 500, Count: 1},
	})
	train, simTr := full.Split(2 * 1440)
	p := NewHybridFunction()
	res, err := sim.Run(p, train, simTr, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Invocations at sim slots 100 and 500: gap 400 > 240 fallback, so both
	// are cold; waste is bounded by two fallback windows.
	if res.PerFunc[0].ColdStarts != 2 {
		t.Errorf("cold starts = %d, want 2", res.PerFunc[0].ColdStarts)
	}
	if res.PerFunc[0].WMTMinutes == 0 || res.PerFunc[0].WMTMinutes > 2*240 {
		t.Errorf("WMT = %d, want within two fallback windows", res.PerFunc[0].WMTMinutes)
	}
}

func TestHybridApplicationGroupsFunctions(t *testing.T) {
	// Two functions in one app, invoked alternately every 30 slots: at app
	// granularity the aggregate IAT is 30, and both functions ride the same
	// windows — so each function is warm even though its own IAT is 60.
	full := trace.NewTrace(4 * 1440)
	var a, b []trace.Event
	for s := 0; s < 4*1440; s += 60 {
		a = append(a, trace.Event{Slot: int32(s), Count: 1})
		if s+30 < 4*1440 {
			b = append(b, trace.Event{Slot: int32(s + 30), Count: 1})
		}
	}
	full.AddFunction("fa", "app", "u", trace.TriggerHTTP, a)
	full.AddFunction("fb", "app", "u", trace.TriggerHTTP, b)
	train, simTr := full.Split(2 * 1440)

	p := NewHybridApplication()
	res, err := sim.Run(p, train, simTr, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := res.PerFunc[0].ColdStarts + res.PerFunc[1].ColdStarts
	if cold > 2 {
		t.Errorf("app-wise cold starts = %d, want <= 2", cold)
	}
	// Loading is app-wise: whenever fa is loaded so is fb, so memory is
	// charged for both.
	if res.TotalMemory%2 != 0 {
		t.Errorf("memory = %d, want even (functions move in pairs)", res.TotalMemory)
	}
}

func TestHybridNames(t *testing.T) {
	if NewHybridFunction().Name() != "Hybrid-Function" {
		t.Error("HF name")
	}
	if NewHybridApplication().Name() != "Hybrid-Application" {
		t.Error("HA name")
	}
	s := NewHybridFunction().String()
	if s == "" {
		t.Error("String empty")
	}
}

func TestHybridUnitWindows(t *testing.T) {
	u := hybridUnit{hist: newTestHist(240)}
	// Not enough observations.
	u.hist.Add(10)
	u.windows(hybridMinObs)
	if u.usable {
		t.Error("unit with 1 observation should be unusable")
	}
	// Sharp peak at 60.
	for i := 0; i < 50; i++ {
		u.hist.Add(60)
	}
	u.windows(hybridMinObs)
	if !u.usable {
		t.Fatal("peaked histogram should be usable")
	}
	if u.prewarm < 40 || u.prewarm > 60 {
		t.Errorf("prewarm = %d, want ~54", u.prewarm)
	}
	if u.keepalive < 1 {
		t.Errorf("keepalive = %d", u.keepalive)
	}
	// Mostly out of bounds -> unusable.
	u2 := hybridUnit{hist: newTestHist(240)}
	for i := 0; i < 20; i++ {
		u2.hist.Add(1e6)
	}
	u2.hist.Add(5)
	u2.windows(hybridMinObs)
	if u2.usable {
		t.Error("OOB-dominated histogram should be unusable")
	}
}

func TestDedupSortInt32(t *testing.T) {
	got := dedupSortInt32([]int32{5, 1, 5, 3, 1})
	want := []int32{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("dedup = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("dedup[%d] = %d", i, got[i])
		}
	}
	if got := dedupSortInt32(nil); len(got) != 0 {
		t.Error("dedup(nil)")
	}
	single := dedupSortInt32([]int32{7})
	if len(single) != 1 || single[0] != 7 {
		t.Error("dedup single")
	}
}
