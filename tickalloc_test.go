package main

import (
	"runtime"
	"testing"
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
