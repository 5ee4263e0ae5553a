package trace

import (
	"runtime"
	"testing"
)

// sparseProduction is a mostly idle population in the streamed regime:
// the sparse trigger mix over eight days, split after six, in 16 shards,
// under scenario sc (the zero value is the stationary workload).
func sparseProduction(tb testing.TB, functions int, sc ScenarioConfig) *GenLayout {
	tb.Helper()
	cfg := DefaultGeneratorConfig(functions, 8, 1)
	cfg.TriggerMix = SparseTriggerMix()
	cfg.Scenario = sc
	l, err := BuildGenLayout(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

const (
	productionShards = 16
	productionSplit  = 6 * 1440
)

// produceAll produces every shard of l, split, and returns the number of
// events the train and sim halves hold.
func produceAll(tb testing.TB, l *GenLayout) (events int) {
	for i := 0; i < productionShards; i++ {
		train, sim, err := l.Shard(i, productionShards, productionSplit)
		if err != nil {
			tb.Fatal(err)
		}
		for li := range sim.Series {
			events += len(train.Series[li]) + len(sim.Series[li])
		}
	}
	return events
}

// shardMetadataBytes bounds what production allocates per function beside
// its events: the Function record (64 B), the train and sim series headers
// (48 B), the Global entry (4 B), the names (~13 B, one string per app),
// and the size-class rounding of two small exact-size series.
const shardMetadataBytes = 256

// shardObjects bounds the objects one Shard call allocates beside its
// functions' series and its apps' names: the call's scratch, its two RNGs,
// the Functions, Global and series slices, and their growth.
const shardObjects = 64

// TestShardProductionAllocationBudget holds shard production to what
// escapes it. Producing every shard of a sparse population may allocate at
// most 1.5 times the bytes of the events it emits, plus a per-function
// metadata term, and at most two objects a function, one an app and
// shardObjects a shard: the synthesizers append into one call's scratch,
// and each function's train and sim halves are copied out of it once, each
// at exact size. Append growth per function, a copy of the full series
// before the split, or an RNG source per function each break a bound.
func TestShardProductionAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	l := sparseProduction(t, 2000, ScenarioConfig{})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	events := produceAll(t, l)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	objects := after.Mallocs - before.Mallocs
	escaping := uint64(events) * 8
	budget := escaping*3/2 + uint64(l.NumFunctions())*shardMetadataBytes
	objectBudget := uint64(2*l.NumFunctions() + len(l.apps) + productionShards*shardObjects)
	t.Logf("%d shards: %d events (%.1f MB) escape, %.1f MB allocated, %d objects, budget %.1f MB and %d objects",
		productionShards, events, float64(escaping)/1e6, float64(got)/1e6, objects, float64(budget)/1e6, objectBudget)
	if got > budget {
		t.Fatalf("producing %d shards allocated %d bytes, budget %d (%d event bytes escape)",
			productionShards, got, budget, escaping)
	}
	if objects > objectBudget {
		t.Fatalf("producing %d shards of %d functions in %d apps allocated %d objects, budget %d",
			productionShards, l.NumFunctions(), len(l.apps), objects, objectBudget)
	}
}

// shiftCohort is the benchmark workloads' scenario: a 1 % cohort whose
// behaviour shifts at the split. Every function then reseeds the scenario
// RNG to draw its cohort membership.
var shiftCohort = ScenarioConfig{Name: "shift-cohort", Seed: 1, Phases: []Phase{
	{Kind: PhaseShift, Start: productionSplit, Fraction: 0.01},
}}

// BenchmarkShardProduction times producing all 16 split shards of a
// 6000-function sparse population from one layout, as a streamed run's
// workers do, stationary and under shiftCohort: B/op is the production's
// whole allocation.
func BenchmarkShardProduction(b *testing.B) {
	for _, sc := range []ScenarioConfig{{Name: "steady"}, shiftCohort} {
		b.Run(sc.Name, func(b *testing.B) {
			l := sparseProduction(b, 6000, sc.Normalize())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				produceAll(b, l)
			}
		})
	}
}
