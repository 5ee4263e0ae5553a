package baselines

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestFaaSCacheKeepsUnderCapacity(t *testing.T) {
	// Two functions, capacity 2: nothing ever evicted, everything warm
	// after first touch.
	full := trace.NewTrace(200)
	full.AddFunction("a", "app", "u", trace.TriggerHTTP, []trace.Event{
		{Slot: 100, Count: 1}, {Slot: 150, Count: 1},
	})
	full.AddFunction("b", "app", "u", trace.TriggerHTTP, []trace.Event{
		{Slot: 110, Count: 1}, {Slot: 160, Count: 1},
	})
	train, simTr := full.Split(90)
	p := NewFaaSCache(2)
	res, err := sim.Run(p, train, simTr, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalColdStarts != 2 {
		t.Errorf("cold starts = %d, want 2 (first touch each)", res.TotalColdStarts)
	}
	if res.MaxLoaded != 2 {
		t.Errorf("max loaded = %d", res.MaxLoaded)
	}
}

func TestFaaSCacheEvictsLowFrequency(t *testing.T) {
	// Capacity 1, function a invoked often, b once in between: b's arrival
	// evicts nothing until over capacity; then the lower-priority entry
	// (lower frequency) goes.
	p := NewFaaSCache(1)
	tr := trace.NewTrace(1)
	tr.AddFunction("a", "app", "u", trace.TriggerHTTP, nil)
	tr.AddFunction("b", "app", "u", trace.TriggerHTTP, nil)
	p.Train(tr)

	// a invoked at t=0,1,2 -> freq 3. b at t=3 -> freq 1; capacity forces
	// one eviction: b has priority clock+1, a has clock+3 -> b evicted.
	for t0 := 0; t0 < 3; t0++ {
		p.Tick(t0, []trace.FuncCount{{Func: 0, Count: 1}})
	}
	p.Tick(3, []trace.FuncCount{{Func: 1, Count: 1}})
	if !p.Loaded(0) || p.Loaded(1) {
		t.Errorf("loaded = (%v, %v), want a kept, b evicted", p.Loaded(0), p.Loaded(1))
	}
	if p.LoadedCount() != 1 {
		t.Errorf("count = %d", p.LoadedCount())
	}
}

func TestFaaSCacheClockAging(t *testing.T) {
	// After evictions raise the clock, a newly inserted function outranks a
	// long-idle frequent one.
	p := NewFaaSCache(1)
	tr := trace.NewTrace(1)
	for i := 0; i < 3; i++ {
		tr.AddFunction("f", "app", "u", trace.TriggerHTTP, nil)
	}
	p.Train(tr)
	// f0 heavily invoked -> freq 10.
	for t0 := 0; t0 < 10; t0++ {
		p.Tick(t0, []trace.FuncCount{{Func: 0, Count: 1}})
	}
	// f1 and f2 take turns; each insertion evicts the previous resident and
	// ratchets the clock past f0's priority eventually.
	p.Tick(10, []trace.FuncCount{{Func: 1, Count: 1}}) // evicts f0? f0 prio=10, f1 prio=clock+1=1 -> f1 evicted immediately
	// Since f1's own arrival makes it resident then over-capacity, the
	// lowest-priority entry goes, which is f1 itself (prio 1 < 10).
	if !p.Loaded(0) {
		t.Error("f0 should survive its first challenger")
	}
	// Clock is now 1. Repeated challengers keep bumping the clock: after
	// many rounds a fresh function's clock+1 exceeds f0's stale 10.
	for t0 := 11; t0 < 40; t0++ {
		f := trace.FuncID(1 + t0%2)
		p.Tick(t0, []trace.FuncCount{{Func: f, Count: 1}})
	}
	if p.Loaded(0) {
		t.Error("f0 should eventually age out via the GDSF clock")
	}
}

func TestFaaSCachePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity should panic")
		}
	}()
	NewFaaSCache(0)
}

func TestLCSEvictsLeastRecentlyUsed(t *testing.T) {
	p := NewLCS(2)
	tr := trace.NewTrace(1)
	for i := 0; i < 3; i++ {
		tr.AddFunction("f", "app", "u", trace.TriggerHTTP, nil)
	}
	p.Train(tr)
	p.Tick(0, []trace.FuncCount{{Func: 0, Count: 1}})
	p.Tick(1, []trace.FuncCount{{Func: 1, Count: 1}})
	p.Tick(2, []trace.FuncCount{{Func: 0, Count: 1}}) // refresh f0
	p.Tick(3, []trace.FuncCount{{Func: 2, Count: 1}}) // evicts f1 (LRU)
	if p.Loaded(1) {
		t.Error("f1 should be evicted as LRU")
	}
	if !p.Loaded(0) || !p.Loaded(2) {
		t.Error("f0 and f2 should be resident")
	}
	if p.LoadedCount() != 2 {
		t.Errorf("count = %d", p.LoadedCount())
	}
}

func TestLCSSameSlotBurst(t *testing.T) {
	p := NewLCS(2)
	tr := trace.NewTrace(1)
	for i := 0; i < 4; i++ {
		tr.AddFunction("f", "app", "u", trace.TriggerHTTP, nil)
	}
	p.Train(tr)
	p.Tick(0, []trace.FuncCount{
		{Func: 0, Count: 1}, {Func: 1, Count: 1}, {Func: 2, Count: 1}, {Func: 3, Count: 1},
	})
	if p.LoadedCount() != 2 {
		t.Errorf("count = %d, want capacity 2", p.LoadedCount())
	}
	// The last two touched survive.
	if !p.Loaded(2) || !p.Loaded(3) {
		t.Error("most recently touched should survive")
	}
}

func TestLCSPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity should panic")
		}
	}()
	NewLCS(0)
}

func TestLCSName(t *testing.T) {
	if NewLCS(5).Name() != "LCS" {
		t.Error("name")
	}
}

// faasCacheTrace draws a random workload for the heap-reference comparison:
// up to 60 functions over a random span, split at a random slot. Each fires
// at one of a few rates, so equal frequencies (and with them priority ties
// that only FuncID breaks) are common, and some slots fire every function
// at once, admitting many newcomers that the same Tick evicts again.
func faasCacheTrace(rng *rand.Rand) (train, simTr *trace.Trace) {
	n := 1 + rng.IntN(60)
	slots := 40 + rng.IntN(120)
	bursts := map[int]bool{}
	for range rng.IntN(4) {
		bursts[rng.IntN(slots)] = true
	}
	rates := []float64{0, 0.01, 0.05, 0.2, 0.6}
	full := trace.NewTrace(slots)
	for f := 0; f < n; f++ {
		rate := rates[rng.IntN(len(rates))]
		var events []trace.Event
		for s := 0; s < slots; s++ {
			if bursts[s] || rng.Float64() < rate {
				events = append(events, trace.Event{Slot: int32(s), Count: 1 + rng.Int32N(3)})
			}
		}
		full.AddFunction("f", "app", "u", trace.TriggerHTTP, events)
	}
	return full.Split(1 + rng.IntN(slots/2))
}

// TestFaaSCacheMatchesHeapReference holds FaaSCache to heapFaaSCache, the
// heap it replaced, on random traces at capacities 1, 2, n/10 and at least
// n: after Train and after every Tick the loaded set, the clock and the
// Tick's flips (as a set) agree, and sim.Run's Results are equal.
func TestFaaSCacheMatchesHeapReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 1))
	for trial := 0; trial < 240; trial++ {
		train, simTr := faasCacheTrace(rng)
		n := train.NumFunctions()
		bySlot := make([][]trace.FuncCount, simTr.Slots)
		for f, ser := range simTr.Series {
			for _, ev := range ser {
				bySlot[ev.Slot] = append(bySlot[ev.Slot], trace.FuncCount{Func: trace.FuncID(f), Count: ev.Count})
			}
		}
		for _, capacity := range []int{1, 2, max(1, n/10), n + rng.IntN(3)} {
			got, want := NewFaaSCache(capacity), newHeapFaaSCache(capacity)
			got.Train(train)
			want.Train(train)
			for slot := -1; slot < simTr.Slots; slot++ {
				if slot >= 0 {
					got.Tick(slot, bySlot[slot])
					want.Tick(slot, bySlot[slot])
				}
				gotFlips, _ := got.TakeLoadDeltas()
				wantFlips, _ := want.TakeLoadDeltas()
				gotFlips, wantFlips = slices.Sorted(slices.Values(gotFlips)), slices.Sorted(slices.Values(wantFlips))
				if !slices.Equal(gotFlips, wantFlips) {
					t.Fatalf("trial %d, capacity %d, slot %d: flips %v, heap reference %v", trial, capacity, slot, gotFlips, wantFlips)
				}
				if got.clock != want.clock {
					t.Fatalf("trial %d, capacity %d, slot %d: clock %v, heap reference %v", trial, capacity, slot, got.clock, want.clock)
				}
				for f := 0; f < n; f++ {
					if got.Loaded(trace.FuncID(f)) != want.Loaded(trace.FuncID(f)) {
						t.Fatalf("trial %d, capacity %d, slot %d: f%d loaded %v, heap reference %v",
							trial, capacity, slot, f, got.Loaded(trace.FuncID(f)), want.Loaded(trace.FuncID(f)))
					}
				}
			}

			gotRes, err := sim.Run(NewFaaSCache(capacity), train, simTr, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			wantRes, err := sim.Run(newHeapFaaSCache(capacity), train, simTr, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if d := wantRes.Diff(gotRes); d != "" {
				t.Fatalf("trial %d, capacity %d: Result differs from the heap reference:\n%s", trial, capacity, d)
			}
		}
	}
}

// selectOutcome reports whether selectLowest left the k lowest of pool in
// its tail: no kept function below an evicted one.
func selectOutcome(pool []trace.FuncID, k int, prio []float64) bool {
	head, tail := pool[:len(pool)-k], pool[len(pool)-k:]
	if len(head) == 0 || len(tail) == 0 {
		return true
	}
	lowestKept, highestEvicted := head[0], tail[0]
	for _, f := range head {
		if higher(prio, lowestKept, f) {
			lowestKept = f
		}
	}
	for _, f := range tail {
		if higher(prio, f, highestEvicted) {
			highestEvicted = f
		}
	}
	return higher(prio, lowestKept, highestEvicted)
}

// TestSelectLowestComparisonBudget runs the selection on pool orders that
// defeat naive pivots — ascending, descending, organ-pipe, and equal
// priorities that only FuncID orders — at 10 000 entries and holds it to a
// linear comparison budget, far below the n²/4 a quadratic pivot spends.
// NaN priorities, against which every comparison is false, defeat any pivot:
// the round cap must still stop the selection within O(n log n).
func TestSelectLowestComparisonBudget(t *testing.T) {
	const n = 10_000
	shuffled := rand.New(rand.NewPCG(43, 2)).Perm(n)
	orders := map[string]func(i int) trace.FuncID{
		"ascending":  func(i int) trace.FuncID { return trace.FuncID(i) },
		"descending": func(i int) trace.FuncID { return trace.FuncID(n - 1 - i) },
		"organ-pipe": func(i int) trace.FuncID { // rising evens, then falling odds
			if i < n/2 {
				return trace.FuncID(2 * i)
			}
			return trace.FuncID(2*(n-i) - 1)
		},
		"equal priorities": func(i int) trace.FuncID { return trace.FuncID(shuffled[i]) },
	}
	for name, at := range orders {
		prio := make([]float64, n)
		for f := range prio {
			if name != "equal priorities" {
				prio[f] = float64(f)
			}
		}
		for _, k := range []int{0, 1, n / 100, n / 2, n - 1, n} {
			pool := make([]trace.FuncID, n)
			for i := range pool {
				pool[i] = at(i)
			}
			compares := selectLowest(pool, k, prio)
			if !selectOutcome(pool, k, prio) {
				t.Errorf("%s, k=%d: the tail does not hold the %d lowest", name, k, k)
			}
			if budget := 5 * n; compares > budget {
				t.Errorf("%s, k=%d: %d comparisons, budget %d", name, k, compares, budget)
			}
		}
	}

	nan := make([]float64, n)
	for f := range nan {
		nan[f] = math.NaN()
	}
	for _, k := range []int{1, n / 2, n - 1} {
		pool := make([]trace.FuncID, n)
		for i := range pool {
			pool[i] = trace.FuncID(i)
		}
		// At most 2·lg rounds of about n comparisons, then a sort.
		lg := bits.Len(n)
		if compares, budget := selectLowest(pool, k, nan), (2*lg+1)*(n+3)+4*n*lg; compares > budget {
			t.Errorf("NaN priorities, k=%d: %d comparisons, budget %d (n log n)", k, compares, budget)
		}
	}
}
