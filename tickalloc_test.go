package main

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
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
// beside the cursor's buffers: the Result's FuncMetrics (32 B), the
// Driver's mirrors (9 B), the cursor's next-event slots and positions
// (8 B), FaaSCache's frequency, priority, heap and index slices (32 B), the
// loaded set and size-class rounding, with about twofold headroom.
const runFunctionBytes = 256

// cursorChunk is the slot count of trace.Trace.BySlot's one chunk (the
// trace package's slotChunk). The engine's two chunks hold half as many
// slots each (sim's engineChunk), so together they hold what one
// cursorChunk-slot chunk does.
const cursorChunk = 64

// runObjects bounds the heap objects of a warm unsharded run. It reads 40
// (go1.24, 2 cores; 38 before the run's trace.Overlap stages were
// closures, 36 before the engine's two chunks), and the run steps
// 90 chunks of 32 slots, so an allocation per chunk breaks it.
const runObjects = 64

// TestRunAllocationBudget holds an unsharded sim.Run to O(functions +
// chunk) bytes and O(1) heap objects: a FaaSCache run over benchSettings'
// simulation window may allocate runFunctionBytes per function plus twice
// the events of the busiest cursorChunk consecutive slots (the reused
// buffers, presized and grown on a burst), but nothing per event, and at
// most runObjects objects, so nothing per chunk either. A slot-major index
// of the whole window, built before the first Tick, breaks the byte bound
// by an order of magnitude. The run is measured at GOMAXPROCS 2 with a
// helper token free, so the Driver steps each chunk while a helper
// transposes the next. A process's first rounds also allocate goroutine
// descriptors, which the runtime keeps per P and later helpers reuse, so
// an untimed run goes first and the object bound applies to the fewest of
// three runs: an allocation per chunk shows in every run.
func TestRunAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
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
	run := func() {
		if _, err := sim.Run(baselines.NewFaaSCache(n/10), train, simTr, sim.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if !helperFree() {
		t.Fatal("no FanOut helper token is free, so the run would not overlap its chunks")
	}

	objects := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		objects = min(objects, after.Mallocs-before.Mallocs)
		t.Logf("%d functions, %d events (%.2f MB), busiest %d-slot window %d events: %.1f KB allocated, %d objects, budget %.1f KB, %d objects",
			n, events, float64(events*8)/1e6, cursorChunk, busiest, float64(got)/1e3, after.Mallocs-before.Mallocs, float64(budget)/1e3, runObjects)
		if got > budget {
			t.Errorf("an unsharded FaaSCache run allocated %d bytes, budget %d (%d functions, %d events)", got, budget, n, events)
		}
	}
	if objects > runObjects {
		t.Errorf("an unsharded FaaSCache run allocated %d heap objects, budget %d", objects, runObjects)
	}
}

// shardBytes bounds what each shard of a default run may allocate beyond
// the single-population run of the same policy over benchSettings: its slot
// log (two int32 per simulated slot, 23 KB), its timing wheel's 2 048-chain
// ring (16 KB), and its share of the partition, the re-IDed metadata its
// two views share, its training view's series slice and the merged Result
// (about 70 KB together over 600 functions). It reads 110 KiB a shard
// (go1.24, 2 cores). Metadata copied once more per view (about 19 KiB a
// shard), or worker scratch of a shard's own, breaks it.
const shardBytes = 120 << 10

// TestDefaultRunAllocation holds the default engine to the allocation of
// the single-population run: at GOMAXPROCS 2 a warm sim.Run of SPES with
// Options.Shards 0 shards the population two ways, and may allocate no more
// bytes than a warm Shards 1 run plus shardBytes for each shard. Both runs
// borrow their categorization scratch from the same free list, so a shard
// that grows scratch of its own shows here. The runs alternate, and each
// side's fewest bytes of three count.
func TestDefaultRunAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	_, train, simTr, err := experiments.BuildWorkload(benchSettings())
	if err != nil {
		t.Fatal(err)
	}
	run := func(shards int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := sim.Run(core.New(core.DefaultConfig()), train, simTr, sim.Options{Shards: shards}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run(0) // warm: the scratch and FanOut free lists, goroutine descriptors
	run(1)
	single, sharded := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 3 {
		single = min(single, run(1))
		sharded = min(sharded, run(0))
	}
	const shards = 2
	budget := single + shards*shardBytes
	t.Logf("warm run of %d functions over %d slots: Shards 1 %.1f KB, default (%d shards) %.1f KB, budget %.1f KB",
		simTr.NumFunctions(), simTr.Slots, float64(single)/1e3, shards, float64(sharded)/1e3, float64(budget)/1e3)
	if sharded > budget {
		t.Errorf("a default run allocated %d B, a Shards 1 run %d B: over the %d-B budget of %d shards", sharded, single, budget, shards)
	}
}

// helperFree reports whether a trace.FanOut can start a helper: item 0
// waits up to a second for a helper to take item 1.
func helperFree() bool {
	var helped, ran1 atomic.Bool
	trace.FanOut(2, 2, func(w, i int) error {
		if i == 1 {
			helped.Store(w > 0)
			ran1.Store(true)
			return nil
		}
		for deadline := time.Now().Add(time.Second); !ran1.Load() && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		return nil
	})
	return helped.Load()
}
