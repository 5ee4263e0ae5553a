package core

import (
	"testing"

	"repro/internal/classify"
	"repro/internal/sim"
	"repro/internal/trace"
)

// periodicEvents emits one invocation every period slots in [0, slots).
func periodicEvents(slots, period, phase int) []trace.Event {
	var out []trace.Event
	for t := phase; t < slots; t += period {
		out = append(out, trace.Event{Slot: int32(t), Count: 1})
	}
	return out
}

// runSPES trains and simulates SPES over the given traces on the
// single-population engine, which trains and ticks the instance it returns.
func runSPES(t *testing.T, cfg Config, train, simTr *trace.Trace) (*SPES, *sim.Result) {
	t.Helper()
	policy := New(cfg)
	res, err := sim.Run(policy, train, simTr, sim.Options{Shards: 1})
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	return policy, res
}

func TestSPESRegularFunctionWarm(t *testing.T) {
	// A period-60 timer: SPES should pre-load right before each firing and
	// evict right after, yielding zero (or near-zero) cold starts with tiny
	// memory use.
	full := trace.NewTrace(8 * 1440)
	full.AddFunction("reg", "app", "u", trace.TriggerTimer, periodicEvents(8*1440, 60, 30))
	train, simTr := full.Split(6 * 1440)

	policy, res := runSPES(t, DefaultConfig(), train, simTr)
	if got := policy.states[0].profile.Type; got != classify.TypeRegular {
		t.Fatalf("profile = %v, want regular", got)
	}
	if res.PerFunc[0].ColdStarts != 0 {
		t.Errorf("cold starts = %d, want 0", res.PerFunc[0].ColdStarts)
	}
	// Memory: roughly (2*theta+1 prewarm window + 1 active) per periodic
	// firing: 48 firings/day x 2 days x ~6 slots << always-on.
	maxMem := int64(8 * 48 * 2)
	if res.TotalMemory > maxMem {
		t.Errorf("memory = %d, want <= %d (prewarm-only footprint)", res.TotalMemory, maxMem)
	}
}

func TestSPESAlwaysWarmStaysLoaded(t *testing.T) {
	slots := 4 * 1440
	full := trace.NewTrace(slots)
	var events []trace.Event
	for s := 0; s < slots; s++ {
		events = append(events, trace.Event{Slot: int32(s), Count: 1})
	}
	full.AddFunction("aw", "app", "u", trace.TriggerTimer, events)
	train, simTr := full.Split(3 * 1440)

	policy, res := runSPES(t, DefaultConfig(), train, simTr)
	if got := policy.states[0].profile.Type; got != classify.TypeAlwaysWarm {
		t.Fatalf("profile = %v, want always-warm", got)
	}
	// Cold only at the very first slot (policy starts with empty memory).
	if res.PerFunc[0].ColdStarts > 1 {
		t.Errorf("cold starts = %d, want <= 1", res.PerFunc[0].ColdStarts)
	}
	if res.TotalMemory < int64(simTr.Slots)-1 {
		t.Errorf("memory = %d, want ~%d (always loaded)", res.TotalMemory, simTr.Slots)
	}
}

func TestSPESSuccessiveToleratesFirstCold(t *testing.T) {
	slots := 8 * 1440
	full := trace.NewTrace(slots)
	var events []trace.Event
	// Waves of 8 busy slots, far apart; three in training, two in sim.
	for _, start := range []int{1000, 4000, 7000, 9200, 10600} {
		for i := 0; i < 8; i++ {
			events = append(events, trace.Event{Slot: int32(start + i), Count: 2})
		}
	}
	full.AddFunction("burst", "app", "u", trace.TriggerStorage, events)
	train, simTr := full.Split(6 * 1440)

	policy, res := runSPES(t, DefaultConfig(), train, simTr)
	if got := policy.states[0].profile.Type; got != classify.TypeSuccessive {
		t.Fatalf("profile = %v, want successive", got)
	}
	// Two waves in the simulation window: exactly one cold start each.
	if res.PerFunc[0].ColdStarts != 2 {
		t.Errorf("cold starts = %d, want 2 (one per wave)", res.PerFunc[0].ColdStarts)
	}
	// 16 invoked slots; memory charged only during waves (+1 eviction lag).
	if res.TotalWMT > 4 {
		t.Errorf("WMT = %d, want tiny", res.TotalWMT)
	}
}

// chainedTrace builds an erratic driver whose follower fires 2 slots later.
// Every gap is distinct (311 + 97*i) so the follower's WTs never repeat and
// no WT-statistics definition can absorb it.
func chainedTrace(slots int) *trace.Trace {
	full := trace.NewTrace(slots)
	var driver, follower []trace.Event
	cur := 50
	for i := 0; cur < slots-3; i++ {
		driver = append(driver, trace.Event{Slot: int32(cur), Count: 1})
		follower = append(follower, trace.Event{Slot: int32(cur + 2), Count: 1})
		cur += 311 + 97*i
	}
	full.AddFunction("driver", "app", "u", trace.TriggerHTTP, driver)
	full.AddFunction("follower", "app", "u", trace.TriggerOrchestration, follower)
	return full
}

func TestSPESCorrelatedPreloading(t *testing.T) {
	full := chainedTrace(8 * 1440)
	train, simTr := full.Split(6 * 1440)

	policy, res := runSPES(t, DefaultConfig(), train, simTr)
	if got := policy.states[1].profile.Type; got != classify.TypeCorrelated {
		t.Fatalf("follower profile = %v, want correlated", got)
	}
	// Every follower invocation is preceded by its driver by 2 slots: the
	// link pre-loads it in time, so no cold starts.
	if res.PerFunc[1].ColdStarts != 0 {
		t.Errorf("follower cold starts = %d, want 0", res.PerFunc[1].ColdStarts)
	}
}

func TestSPESCorrelatedAblation(t *testing.T) {
	full := chainedTrace(8 * 1440)
	train, simTr := full.Split(6 * 1440)

	cfg := DefaultConfig()
	cfg.DisableCorrelation = true
	policy, res := runSPES(t, cfg, train, simTr)
	if got := policy.states[1].profile.Type; got == classify.TypeCorrelated {
		t.Fatal("w/o Corr still categorized correlated")
	}
	// Without the link, the erratic follower goes cold on most invocations.
	if res.PerFunc[1].ColdStarts == 0 {
		t.Error("w/o Corr should suffer cold starts")
	}
}

func TestSPESUnknownStaysCold(t *testing.T) {
	slots := 8 * 1440
	full := trace.NewTrace(slots)
	// Invoked a few scattered times, all in the simulation window, with a
	// trigger/app shared with nobody.
	full.AddFunction("mystery", "appX", "uX", trace.TriggerEvent, []trace.Event{
		{Slot: int32(6*1440 + 100), Count: 1},
		{Slot: int32(6*1440 + 900), Count: 1},
		{Slot: int32(6*1440 + 2300), Count: 1},
	})
	train, simTr := full.Split(6 * 1440)

	policy, res := runSPES(t, DefaultConfig(), train, simTr)
	if got := policy.states[0].profile.Type; got != classify.TypeUnknown {
		t.Fatalf("profile = %v, want unknown", got)
	}
	// SPES deliberately connives these cold starts (Section V-B).
	if res.PerFunc[0].ColdStarts != 3 {
		t.Errorf("cold starts = %d, want 3", res.PerFunc[0].ColdStarts)
	}
}

func TestSPESUnknownPromotedToNewlyPossible(t *testing.T) {
	slots := 10 * 1440
	full := trace.NewTrace(slots)
	// Silent in training; online it repeats a 100-slot gap enough times for
	// promotion (adjustMinWTs online WTs), then the next gap is predicted.
	var events []trace.Event
	start := 6*1440 + 10
	for i := 0; i < 12; i++ {
		events = append(events, trace.Event{Slot: int32(start + i*100), Count: 1})
	}
	full.AddFunction("riser", "appX", "uX", trace.TriggerEvent, events)
	train, simTr := full.Split(6 * 1440)

	policy, res := runSPES(t, DefaultConfig(), train, simTr)
	if got := policy.states[0].profile.Type; got != classify.TypeNewlyPossible {
		t.Fatalf("profile = %v, want newly-possible", got)
	}
	// After promotion (first ~6 invocations), the rest are pre-warmed.
	if res.PerFunc[0].ColdStarts > 7 {
		t.Errorf("cold starts = %d, want promotion to cut them off", res.PerFunc[0].ColdStarts)
	}
	if res.PerFunc[0].ColdStarts == int64(len(events)) {
		t.Error("promotion had no effect")
	}
}

func TestSPESAdjustingDisabled(t *testing.T) {
	slots := 10 * 1440
	full := trace.NewTrace(slots)
	var events []trace.Event
	start := 6*1440 + 10
	for i := 0; i < 12; i++ {
		events = append(events, trace.Event{Slot: int32(start + i*100), Count: 1})
	}
	full.AddFunction("riser", "appX", "uX", trace.TriggerEvent, events)
	train, simTr := full.Split(6 * 1440)

	cfg := DefaultConfig()
	cfg.DisableAdjusting = true
	policy, res := runSPES(t, cfg, train, simTr)
	if got := policy.states[0].profile.Type; got != classify.TypeUnknown {
		t.Fatalf("w/o Adjusting profile = %v, want unknown (no promotion)", got)
	}
	if res.PerFunc[0].ColdStarts != 12 {
		t.Errorf("w/o Adjusting cold starts = %d, want all 12", res.PerFunc[0].ColdStarts)
	}
}

func TestSPESOnlineCorrelationForUnseen(t *testing.T) {
	slots := 10 * 1440
	full := trace.NewTrace(slots)
	// Candidate: same app & trigger, active throughout training and sim at
	// erratic slots. Unseen target: silent in training, fires 1 slot after
	// the candidate during sim.
	gaps := []int{611, 1507, 905, 1297, 701, 1133}
	var cand, target []trace.Event
	cur := 40
	for i := 0; cur < slots-2; i++ {
		cand = append(cand, trace.Event{Slot: int32(cur), Count: 1})
		if cur >= 6*1440 {
			target = append(target, trace.Event{Slot: int32(cur + 1), Count: 1})
		}
		cur += gaps[i%len(gaps)]
	}
	full.AddFunction("cand", "app", "u", trace.TriggerQueue, cand)
	full.AddFunction("unseen", "app", "u", trace.TriggerQueue, target)
	train, simTr := full.Split(6 * 1440)

	if train.Series[1].Total() != 0 {
		t.Fatal("test setup: target must be silent in training")
	}

	policy, res := runSPES(t, DefaultConfig(), train, simTr)
	if got := policy.states[1].profile.Type; got != classify.TypeUnknown {
		t.Fatalf("unseen profile = %v, want unknown", got)
	}
	// Online correlation pre-loads the target at each candidate fire, so
	// all (or nearly all) its invocations are warm.
	if res.PerFunc[1].ColdStarts > 1 {
		t.Errorf("unseen cold starts = %d, want <= 1 via online correlation", res.PerFunc[1].ColdStarts)
	}

	// Ablation: without online correlation every invocation is cold.
	cfg := DefaultConfig()
	cfg.DisableOnlineCorr = true
	_, resOff := runSPES(t, cfg, train, simTr)
	if resOff.PerFunc[1].ColdStarts != res.PerFunc[1].ColdStarts+int64(len(target))-res.PerFunc[1].ColdStarts {
		// all invocations cold
		if resOff.PerFunc[1].ColdStarts != int64(len(target)) {
			t.Errorf("w/o Online-Corr cold starts = %d, want %d", resOff.PerFunc[1].ColdStarts, len(target))
		}
	}
}

func TestSPESDensePatience(t *testing.T) {
	slots := 8 * 1440
	full := trace.NewTrace(slots)
	// Busy runs with gaps of 1-4 slots, continuing through the sim window.
	var events []trace.Event
	cur := 0
	gapSeq := []int{1, 3, 2, 4, 1, 2, 3, 1, 4, 2}
	for i := 0; cur < slots; i++ {
		events = append(events, trace.Event{Slot: int32(cur), Count: 1})
		cur += 1 + gapSeq[i%len(gapSeq)]
	}
	full.AddFunction("queuey", "app", "u", trace.TriggerQueue, events)
	train, simTr := full.Split(6 * 1440)

	policy, res := runSPES(t, DefaultConfig(), train, simTr)
	typ := policy.states[0].profile.Type
	if typ != classify.TypeDense && typ != classify.TypeApproRegular {
		t.Fatalf("profile = %v, want dense or appro-regular", typ)
	}
	// Gaps never exceed theta-givenup(dense)=5 or the prediction window, so
	// at most the initial cold start.
	if res.PerFunc[0].ColdStarts > 1 {
		t.Errorf("cold starts = %d, want <= 1", res.PerFunc[0].ColdStarts)
	}
}

func TestSPESLoadedCountConsistency(t *testing.T) {
	// Cross-check LoadedCount against a full scan after every tick.
	slots := 4 * 1440
	full := trace.NewTrace(slots)
	full.AddFunction("a", "app", "u", trace.TriggerTimer, periodicEvents(slots, 30, 0))
	full.AddFunction("b", "app", "u", trace.TriggerHTTP, periodicEvents(slots, 97, 5))
	full.AddFunction("c", "app2", "u2", trace.TriggerQueue, periodicEvents(slots, 7, 3))
	train, simTr := full.Split(3 * 1440)

	policy := New(DefaultConfig())
	policy.Train(train)
	idx := simTr.BuildSlotIndex()
	for t0 := 0; t0 < simTr.Slots; t0++ {
		policy.Tick(t0, idx.Invocations[t0])
		count := 0
		for f := 0; f < simTr.NumFunctions(); f++ {
			if policy.Loaded(trace.FuncID(f)) {
				count++
			}
		}
		if count != policy.LoadedCount() {
			t.Fatalf("slot %d: LoadedCount=%d, scan=%d", t0, policy.LoadedCount(), count)
		}
	}
}

func TestSPESTypeOf(t *testing.T) {
	slots := 4 * 1440
	full := trace.NewTrace(slots)
	full.AddFunction("a", "app", "u", trace.TriggerTimer, periodicEvents(slots, 30, 0))
	train, simTr := full.Split(3 * 1440)
	policy, _ := runSPES(t, DefaultConfig(), train, simTr)
	if got := policy.TypeOf(0); got != "regular" {
		t.Errorf("TypeOf = %q, want regular", got)
	}
}
