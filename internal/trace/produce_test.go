package trace

import (
	"runtime"
	"testing"
)

// sparseProduction is a mostly idle population in the streamed regime:
// the sparse trigger mix over eight days, split after six, in 16 shards.
func sparseProduction(tb testing.TB, functions int) *GenLayout {
	tb.Helper()
	cfg := DefaultGeneratorConfig(functions, 8, 1)
	cfg.TriggerMix = SparseTriggerMix()
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

// TestShardProductionAllocationBudget holds shard production to what
// escapes it. Producing every shard of a sparse population may allocate at
// most 1.5 times the bytes of the events it emits, plus a per-function
// metadata term: the synthesizers append into one call's scratch, the
// series are copied out once at exact size, and the split reads straight
// from scratch. Append growth per function, a copy of the full series
// before the split, or an RNG source per function each break the bound.
func TestShardProductionAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	l := sparseProduction(t, 2000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	events := produceAll(t, l)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	escaping := uint64(events) * 8
	budget := escaping*3/2 + uint64(l.NumFunctions())*shardMetadataBytes
	t.Logf("%d shards: %d events (%.1f MB) escape, %.1f MB allocated, %d objects, budget %.1f MB",
		productionShards, events, float64(escaping)/1e6, float64(got)/1e6, after.Mallocs-before.Mallocs, float64(budget)/1e6)
	if got > budget {
		t.Fatalf("producing %d shards allocated %d bytes, budget %d (%d event bytes escape)",
			productionShards, got, budget, escaping)
	}
}

// BenchmarkShardProduction times producing all 16 split shards of a
// 6000-function sparse population from one layout, as a streamed run's
// workers do: B/op is the production's whole allocation.
func BenchmarkShardProduction(b *testing.B) {
	l := sparseProduction(b, 6000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		produceAll(b, l)
	}
}
