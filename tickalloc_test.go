package main

import (
	"runtime"
	"testing"

	"repro/internal/baselines"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// TestTickAllocationBudget fails when a per-Tick allocation is introduced:
// every policy of the overhead comparison is trained, ticked once over the
// simulation window in the engines' regime (tickWindow), and held to its
// budget of heap objects (runtime.MemStats.Mallocs) per Tick.
//
// The budgets (overheadPolicies) are pinned at 1.5 times the readings since
// the timing wheel became one slab of intrusive deadline chains and a
// function's online-WT storage one allocation (go1.24, benchSettings: 600
// functions, 2 880 simulated slots): SPES 0.207, HybridFunction 0.019,
// Defuse 0.019, HybridApplication 0.005, Fixed, LCS and FaaSCache 0.000; a
// budget is at least 0.01, 29 objects a window for whatever the runtime
// itself allocates meanwhile. Heap object counts of a single-goroutine loop
// repeat to the third decimal on any machine, so the budget is a hard one.
// What SPES still allocates is each function's online-WT store, carved on
// its first recorded waiting time (recordOnlineWT), and the adjusting
// strategy's mode statistics. The store stays lazy on purpose: carving it
// for every function at Train would raise the run's total allocation. The
// Hybrid and Defuse readings are likewise their units' first inter-arrival
// histograms. Work that removes allocations from a Tick path lowers these
// constants.
func TestTickAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	train, simTr, idx := overheadWorkload(t)
	for _, pol := range overheadPolicies {
		p := pol.mk(train.NumFunctions() / 10)
		p.Train(train)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tickWindow(p, idx, simTr.Slots)
		runtime.ReadMemStats(&after)
		perTick := float64(after.Mallocs-before.Mallocs) / float64(simTr.Slots)
		t.Logf("%-18s %7.3f heap objects/Tick over %d slots (budget %.2f)", pol.name, perTick, simTr.Slots, pol.objectsPerTick)
		if perTick > pol.objectsPerTick {
			t.Errorf("%s allocates %.3f heap objects per Tick, budget %.2f", pol.name, perTick, pol.objectsPerTick)
		}
	}
}

// runFunctionBytes bounds what an unsharded run allocates per function
// beside the cursor's buffer: the Result's FuncMetrics (32 B), the
// Driver's mirrors (9 B), the cursor's live list and positions (8 B),
// FaaSCache's frequency, priority, heap and index slices (32 B), the
// loaded set and size-class rounding, with about twofold headroom.
const runFunctionBytes = 256

// cursorChunk is the slot count trace.Trace.BySlot transposes at a time
// (the trace package's slotChunk).
const cursorChunk = 64

// TestRunAllocationBudget holds an unsharded sim.Run to O(functions +
// chunk) bytes: a FaaSCache run over benchSettings' simulation window may
// allocate runFunctionBytes per function plus twice the events of the
// busiest cursorChunk consecutive slots (the reused buffer, presized and
// grown on a burst), but nothing per event. A slot-major index of the whole window,
// built before the first Tick, breaks the bound by an order of magnitude.
func TestRunAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	_, train, simTr, err := experiments.BuildWorkload(benchSettings())
	if err != nil {
		t.Fatal(err)
	}
	perSlot := make([]int, simTr.Slots)
	events := 0
	for _, s := range simTr.Series {
		for _, e := range s {
			perSlot[e.Slot]++
			events++
		}
	}
	busiest, window := 0, 0
	for s, n := range perSlot {
		window += n
		if s >= cursorChunk {
			window -= perSlot[s-cursorChunk]
		}
		busiest = max(busiest, window)
	}
	n := simTr.NumFunctions()
	budget := uint64(n*runFunctionBytes + 2*busiest*8)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := sim.Run(baselines.NewFaaSCache(n/10), train, simTr, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d functions, %d events (%.2f MB), busiest %d-slot window %d events: %.1f KB allocated, %d objects, budget %.1f KB",
		n, events, float64(events*8)/1e6, cursorChunk, busiest, float64(got)/1e3, after.Mallocs-before.Mallocs, float64(budget)/1e3)
	if got > budget {
		t.Fatalf("an unsharded FaaSCache run allocated %d bytes, budget %d (%d functions, %d events)", got, budget, n, events)
	}
}
