package baselines

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// dependencyTrace builds a driver firing erratically and a follower firing
// 2 slots later, within one application, across train+sim halves.
func dependencyTrace(halfSlots int) *trace.Trace {
	full := trace.NewTrace(2 * halfSlots)
	var driver, follower []trace.Event
	cur := 50
	for i := 0; cur < 2*halfSlots-3; i++ {
		driver = append(driver, trace.Event{Slot: int32(cur), Count: 1})
		follower = append(follower, trace.Event{Slot: int32(cur + 2), Count: 1})
		cur += 211 + 83*(i%13)
	}
	full.AddFunction("driver", "app", "u", trace.TriggerHTTP, driver)
	full.AddFunction("follower", "app", "u", trace.TriggerOrchestration, follower)
	return full
}

func TestDefuseMinesDependencies(t *testing.T) {
	full := dependencyTrace(4 * 1440)
	train, simTr := full.Split(4 * 1440)
	p := NewDefuse()
	// The single-population engine trains p itself, not a shard clone.
	res, err := sim.Run(p, train, simTr, sim.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.successors[0]) == 0 {
		t.Fatal("no dependency mined from driver to follower")
	}
	// The follower is pre-warmed by its driver: no (or almost no) cold
	// starts despite erratic gaps.
	if res.PerFunc[1].ColdStarts > 1 {
		t.Errorf("follower cold starts = %d, want <= 1", res.PerFunc[1].ColdStarts)
	}
}

func TestDefuseFallbackKeepAlive(t *testing.T) {
	// An isolated function with irregular gaps: no dependencies, unusable
	// histogram -> 10-minute fallback.
	full := trace.NewTrace(4 * 1440)
	full.AddFunction("lonely", "app", "u", trace.TriggerHTTP, []trace.Event{
		{Slot: 10, Count: 1}, {Slot: 2000, Count: 1},
		{Slot: 2*1440 + 5, Count: 1}, {Slot: 2*1440 + 8, Count: 1}, {Slot: 2*1440 + 600, Count: 1},
	})
	train, simTr := full.Split(2 * 1440)
	p := NewDefuse()
	res, err := sim.Run(p, train, simTr, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sim invocations at 5, 8, 600: 5 cold, 8 warm (gap 3 < 10), 600 cold.
	if res.PerFunc[0].ColdStarts != 2 {
		t.Errorf("cold starts = %d, want 2", res.PerFunc[0].ColdStarts)
	}
}

func TestDefuseName(t *testing.T) {
	if NewDefuse().Name() != "Defuse" {
		t.Error("name")
	}
}
