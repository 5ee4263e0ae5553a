// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (see DESIGN.md's experiment index). Each benchmark
// regenerates its artifact end to end; reported ns/op is the cost of a full
// regeneration at bench scale. The Overhead benchmarks time a single
// scheduler Tick, reproducing RQ2's per-minute overhead comparison.
//
// Run everything:  go test -bench=. -benchmem
// One figure:      go test -bench=BenchmarkFig8 -benchmem
package main

import (
	"io"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchSettings is the workload scale the benchmarks run at: large enough
// for stable distribution shapes, small enough for -bench=. to finish in
// minutes.
func benchSettings() experiments.Settings {
	s := experiments.DefaultSettings()
	s.Functions = 600
	s.Days = 8
	s.TrainDays = 6
	return s
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	runner, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	s := benchSettings()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runner(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}

// Section III analysis artifacts.

func BenchmarkFig3_InvocationImbalance(b *testing.B) { benchFigure(b, "3") }
func BenchmarkFig4_ConceptShifts(b *testing.B)       { benchFigure(b, "4") }
func BenchmarkFig5_TriggerMix(b *testing.B)          { benchFigure(b, "5") }
func BenchmarkFig6_TemporalLocality(b *testing.B)    { benchFigure(b, "6") }
func BenchmarkCORStats(b *testing.B)                 { benchFigure(b, "cor") }

// RQ1: cold-start reduction.

func BenchmarkFig8_ColdStartCDF(b *testing.B) { benchFigure(b, "8") }
func BenchmarkFig9a_MemoryUsage(b *testing.B) { benchFigure(b, "9a") }
func BenchmarkFig9b_AlwaysCold(b *testing.B)  { benchFigure(b, "9b") }
func BenchmarkFig10_PerTypeCSR(b *testing.B)  { benchFigure(b, "10") }

// RQ2: memory waste.

func BenchmarkFig11a_WMT(b *testing.B)            { benchFigure(b, "11a") }
func BenchmarkFig11b_EMCR(b *testing.B)           { benchFigure(b, "11b") }
func BenchmarkFig12_PerTypeWMTRatio(b *testing.B) { benchFigure(b, "12") }

// RQ3: trade-off sweeps.

func BenchmarkFig13a_PrewarmSweep(b *testing.B) { benchFigure(b, "13a") }
func BenchmarkFig13b_GivenupSweep(b *testing.B) { benchFigure(b, "13b") }

// RQ4: ablations.

func BenchmarkFig14_CorrAblation(b *testing.B)     { benchFigure(b, "14") }
func BenchmarkFig15_AdaptiveAblation(b *testing.B) { benchFigure(b, "15") }

// RQ2's overhead comparison: per-Tick cost of each policy over the same
// simulated stream, the number the paper reports as "overhead per minute".

// overheadPolicies are the seven policies of the comparison; capacity is a
// tenth of the population and only the pool-bounded baselines read it.
// objectsPerTick is TestTickAllocationBudget's budget; the readings it is
// pinned from are in that test's comment.
var overheadPolicies = []struct {
	name           string
	mk             func(capacity int) sim.Policy
	objectsPerTick float64
}{
	{"SPES", func(int) sim.Policy { return core.New(core.DefaultConfig()) }, 0.31},
	{"Fixed", func(int) sim.Policy { return baselines.NewFixedKeepAlive(10) }, 0.01},
	{"HybridFunction", func(int) sim.Policy { return baselines.NewHybridFunction(baselines.DefaultHybridConfig()) }, 0.03},
	{"HybridApplication", func(int) sim.Policy { return baselines.NewHybridApplication(baselines.DefaultHybridConfig()) }, 0.01},
	{"Defuse", func(int) sim.Policy { return baselines.NewDefuse(baselines.DefaultDefuseConfig()) }, 0.03},
	{"FaaSCache", func(capacity int) sim.Policy { return baselines.NewFaaSCache(capacity) }, 0.01},
	{"LCS", func(capacity int) sim.Policy { return baselines.NewLCS(capacity) }, 0.01},
}

// overheadWorkload is the trace pair the Overhead benchmarks and
// TestTickAllocationBudget tick over, with the simulation window's slot
// index.
func overheadWorkload(tb testing.TB) (train, simTr *trace.Trace, idx *trace.SlotIndex) {
	tb.Helper()
	_, train, simTr, err := experiments.BuildWorkload(benchSettings())
	if err != nil {
		tb.Fatal(err)
	}
	return train, simTr, simTr.BuildSlotIndex()
}

// tickWindow drives a trained policy over slots [0, n) of the simulation
// window the way sim.Driver does: monotone time, the load-delta log drained
// after every Tick.
func tickWindow(p sim.Policy, idx *trace.SlotIndex, n int) {
	tracker, _ := p.(sim.LoadDeltaTracker)
	for t := 0; t < n; t++ {
		p.Tick(t, idx.Invocations[t])
		if tracker != nil {
			tracker.TakeLoadDeltas()
		}
	}
}

// overheadBench times b.N Ticks of the named policy. Time never runs
// backwards: when b.N outruns the simulation window, a freshly trained
// policy starts the window again with the timer stopped.
func overheadBench(b *testing.B, name string) {
	b.Helper()
	train, simTr, idx := overheadWorkload(b)
	for _, pol := range overheadPolicies {
		if pol.name != name {
			continue
		}
		b.ResetTimer()
		for left := b.N; left > 0; left -= simTr.Slots {
			b.StopTimer()
			p := pol.mk(train.NumFunctions() / 10)
			p.Train(train)
			b.StartTimer()
			tickWindow(p, idx, min(left, simTr.Slots))
		}
		return
	}
	b.Fatalf("no overhead policy named %q", name)
}

func BenchmarkOverhead_SPES(b *testing.B)              { overheadBench(b, "SPES") }
func BenchmarkOverhead_Fixed(b *testing.B)             { overheadBench(b, "Fixed") }
func BenchmarkOverhead_HybridFunction(b *testing.B)    { overheadBench(b, "HybridFunction") }
func BenchmarkOverhead_HybridApplication(b *testing.B) { overheadBench(b, "HybridApplication") }
func BenchmarkOverhead_Defuse(b *testing.B)            { overheadBench(b, "Defuse") }
func BenchmarkOverhead_FaaSCache(b *testing.B)         { overheadBench(b, "FaaSCache") }
func BenchmarkOverhead_LCS(b *testing.B)               { overheadBench(b, "LCS") }

// Substrate micro-benchmarks: the pieces the end-to-end numbers decompose
// into (workload synthesis, categorization, a full simulator run).

func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := trace.Generate(trace.DefaultGeneratorConfig(500, 4, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOfflineCategorization(b *testing.B) {
	s := benchSettings()
	_, train, _, err := experiments.BuildWorkload(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy := core.New(core.DefaultConfig())
		policy.Train(train)
	}
}

func BenchmarkFullSimulation_SPES(b *testing.B) {
	s := benchSettings()
	_, train, simTr, err := experiments.BuildWorkload(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(core.New(core.DefaultConfig()), train, simTr, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullSimulation_SPES_Sharded is the sharded-engine counterpart of
// BenchmarkFullSimulation_SPES: same bench-scale workload, population split
// into 4 app/user-closed shards simulated concurrently and merged. On a
// single-core runner the shard runs serialize, so the comparison against
// the unsharded benchmark bounds the sharding overhead; with >= 4 cores it
// shows the speedup.
func BenchmarkFullSimulation_SPES_Sharded(b *testing.B) {
	s := benchSettings()
	_, train, simTr, err := experiments.BuildWorkload(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(core.New(core.DefaultConfig()), train, simTr, sim.Options{Shards: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
