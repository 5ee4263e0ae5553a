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
// The budgets (overheadPolicies) are pinned at 1.5 times the readings at the
// commit that introduced this test (go1.24, benchSettings: 600 functions,
// 2 880 simulated slots): SPES 5.626, Fixed 0.037, HybridFunction 1.560,
// HybridApplication 1.402, Defuse 1.583, LCS 0.000; FaaSCache read 78.501
// until its eviction heap stopped boxing FuncIDs and now reads 0.000. Heap
// object counts of a single-goroutine loop repeat to the third decimal on any
// machine, so the budget is a hard one; LCS and FaaSCache get 29 objects a
// window for whatever the runtime itself allocates meanwhile. Work that
// removes allocations from a Tick path (the wheel's bucket growth) lowers
// these constants.
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
