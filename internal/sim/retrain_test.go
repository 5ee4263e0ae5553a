package sim

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/trace"
)

// retrainFixture builds a 2-function train/sim pair with known events:
// training slots 0..9 (10 slots), simulation slots 0..19.
func retrainFixture() (training, simTr *trace.Trace) {
	training = trace.NewTrace(10)
	training.AddFunction("f0", "a", "u", trace.TriggerHTTP,
		[]trace.Event{{Slot: 2, Count: 1}, {Slot: 9, Count: 2}})
	training.AddFunction("f1", "a", "u", trace.TriggerTimer, nil)
	simTr = trace.NewTrace(20)
	simTr.AddFunction("f0", "a", "u", trace.TriggerHTTP,
		[]trace.Event{{Slot: 0, Count: 3}, {Slot: 15, Count: 1}})
	simTr.AddFunction("f1", "a", "u", trace.TriggerTimer,
		[]trace.Event{{Slot: 4, Count: 5}})
	return training, simTr
}

func TestRetrainWindowInsideSim(t *testing.T) {
	training, simTr := retrainFixture()
	// Window [8, 16) on the sim timeline: only f0's slot-15 event, re-based
	// to window slot 7.
	win := BuildRetrainWindow(training, simTr, 16, 8)
	if win.Slots != 8 {
		t.Fatalf("slots = %d, want 8", win.Slots)
	}
	if want := (trace.Series{{Slot: 7, Count: 1}}); !reflect.DeepEqual(win.Series[0], want) {
		t.Errorf("f0 = %v, want %v", win.Series[0], want)
	}
	if len(win.Series[1]) != 0 {
		t.Errorf("f1 = %v, want empty", win.Series[1])
	}
}

func TestRetrainWindowStraddlesTrainingBoundary(t *testing.T) {
	training, simTr := retrainFixture()
	// Window of 10 slots ending at sim slot 6 ⇒ sim-timeline [-4, 6):
	// training slots 6..9 land at window slots 0..3, sim slots 0..5 at 4..9.
	win := BuildRetrainWindow(training, simTr, 6, 10)
	if want := (trace.Series{{Slot: 3, Count: 2}, {Slot: 4, Count: 3}}); !reflect.DeepEqual(win.Series[0], want) {
		t.Errorf("f0 = %v, want %v", win.Series[0], want)
	}
	if want := (trace.Series{{Slot: 8, Count: 5}}); !reflect.DeepEqual(win.Series[1], want) {
		t.Errorf("f1 = %v, want %v", win.Series[1], want)
	}
}

// TestRetrainWindowAdmittedPastTraining builds a straddling window over a
// recorded history holding one more function than the training trace, as a
// daemon's does after an admission: the newcomer has no training history,
// so its window is its recorded events alone.
func TestRetrainWindowAdmittedPastTraining(t *testing.T) {
	training, simTr := retrainFixture()
	simTr.AddFunction("f2", "b", "u", trace.TriggerHTTP, []trace.Event{{Slot: 1, Count: 4}})
	var wb WindowBuilder
	win := wb.Build(training, simTr, 6, 10)
	if want := (trace.Series{{Slot: 3, Count: 2}, {Slot: 4, Count: 3}}); !reflect.DeepEqual(win.Series[0], want) {
		t.Errorf("f0 = %v, want %v", win.Series[0], want)
	}
	if want := (trace.Series{{Slot: 5, Count: 4}}); !reflect.DeepEqual(win.Series[2], want) {
		t.Errorf("f2 = %v, want %v", win.Series[2], want)
	}
}

func TestRetrainWindowBeyondRecordedHistory(t *testing.T) {
	training, simTr := retrainFixture()
	// A 40-slot window at sim slot 5 reaches 25 slots before recorded
	// history: everything known lands at the tail, the prefix stays empty.
	win := BuildRetrainWindow(training, simTr, 5, 40)
	if want := (trace.Series{{Slot: 27, Count: 1}, {Slot: 34, Count: 2}, {Slot: 35, Count: 3}}); !reflect.DeepEqual(win.Series[0], want) {
		t.Errorf("f0 = %v, want %v", win.Series[0], want)
	}
	// Without a training trace the same window is just the sim prefix,
	// shifted to the window tail.
	win = BuildRetrainWindow(nil, simTr, 5, 40)
	if want := (trace.Series{{Slot: 35, Count: 3}}); !reflect.DeepEqual(win.Series[0], want) {
		t.Errorf("no-training f0 = %v, want %v", win.Series[0], want)
	}
}

// TestRetrainWindowStraddleEmptyParts covers the straddling window whose
// training tail, simulation prefix, or both hold nothing for a function: the
// part that exists is all there is, and nothing at all stays a nil series —
// also on a builder whose previous window gave every one of these functions
// events.
func TestRetrainWindowStraddleEmptyParts(t *testing.T) {
	training := trace.NewTrace(10)
	simTr := trace.NewTrace(20)
	busyTraining := trace.NewTrace(10)
	busySim := trace.NewTrace(20)
	add := func(name string, train, sim []trace.Event) {
		training.AddFunction(name, "a", "u", trace.TriggerHTTP, train)
		simTr.AddFunction(name, "a", "u", trace.TriggerHTTP, sim)
		busyTraining.AddFunction(name, "a", "u", trace.TriggerHTTP, []trace.Event{{Slot: 7, Count: 1}})
		busySim.AddFunction(name, "a", "u", trace.TriggerHTTP, []trace.Event{{Slot: 3, Count: 1}})
	}
	// Window [-4, 6): training slots 6..9 and simulation slots 0..5.
	add("early-training-only", []trace.Event{{Slot: 1, Count: 4}, {Slot: 5, Count: 1}}, []trace.Event{{Slot: 2, Count: 7}})
	add("no-sim-yet", []trace.Event{{Slot: 6, Count: 2}, {Slot: 8, Count: 1}}, []trace.Event{{Slot: 6, Count: 9}})
	add("outside-both", []trace.Event{{Slot: 5, Count: 1}}, []trace.Event{{Slot: 6, Count: 1}})
	add("silent", nil, nil)

	want := []trace.Series{
		{{Slot: 6, Count: 7}},
		{{Slot: 0, Count: 2}, {Slot: 2, Count: 1}},
		nil,
		nil,
	}
	if win := BuildRetrainWindow(training, simTr, 6, 10); !reflect.DeepEqual(win.Series, want) {
		t.Errorf("window series = %v, want %v", win.Series, want)
	}

	var wb WindowBuilder
	busy := wb.Build(busyTraining, busySim, 6, 10)
	for fid, s := range busy.Series {
		if len(s) != 2 {
			t.Fatalf("busy window f%d = %v, want two events", fid, s)
		}
	}
	if win := wb.Build(training, simTr, 6, 10); !reflect.DeepEqual(win.Series, want) {
		t.Errorf("window series after a busy window = %v, want %v", win.Series, want)
	}
}

// compositionWindow is the definition the single-copy build replaced: the
// training tail and the simulation prefix each cut by Series.Window, the
// second shifted behind the first.
func compositionWindow(training, simTr *trace.Trace, fid, at, w int) trace.Series {
	a := at - w
	if a >= 0 {
		return simTr.Series[fid].Window(int32(a), int32(at))
	}
	want := training.Series[fid].Window(int32(training.Slots+a), int32(training.Slots))
	for _, e := range simTr.Series[fid].Window(0, int32(at)) {
		want = append(want, trace.Event{Slot: e.Slot - int32(a), Count: e.Count})
	}
	return want
}

// TestRetrainWindowMatchesWindowComposition holds the builder to
// compositionWindow at every boundary of a generated workload, before and
// after the window leaves the training trace. All windows go through one
// WindowBuilder in sequence, so its arena grows (w = 5000 after 700),
// shrinks and is overwritten; each window is checked before the next build.
func TestRetrainWindowMatchesWindowComposition(t *testing.T) {
	full, err := trace.Generate(trace.DefaultGeneratorConfig(120, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	training, simTr := full.Split(2 * 1440)
	var wb WindowBuilder
	for _, w := range []int{training.Slots, 700, 5000} {
		for at := 240; at < simTr.Slots; at += 240 {
			win := wb.Build(training, simTr, at, w)
			if win.Slots != w || len(win.Series) != simTr.NumFunctions() {
				t.Fatalf("w=%d t=%d: %d slots and %d series, want %d and %d",
					w, at, win.Slots, len(win.Series), w, simTr.NumFunctions())
			}
			for fid := range simTr.Series {
				if want := compositionWindow(training, simTr, fid, at, w); !reflect.DeepEqual(win.Series[fid], want) {
					t.Fatalf("w=%d t=%d f%d: window %v, want %v", w, at, fid, win.Series[fid], want)
				}
			}
		}
	}
}

// TestRetrainWindowPopulationGrows is the serving daemon's shape: between
// two builds a function is admitted, its training series nil-padded and its
// history recorded from the admission on, and the next window covers the
// grown population.
func TestRetrainWindowPopulationGrows(t *testing.T) {
	training, history := retrainFixture()
	history.Slots = 8
	var wb WindowBuilder
	if win := wb.Build(training, history, 8, 10); len(win.Series) != 2 {
		t.Fatalf("first window has %d series, want 2", len(win.Series))
	}

	history.AddFunction("f2", "a", "u", trace.TriggerHTTP, []trace.Event{{Slot: 9, Count: 4}})
	training.Functions = history.Functions
	training.Series = append(training.Series, nil)
	history.Slots = 12
	// Window [2, 12) on the history timeline.
	win := wb.Build(training, history, 12, 10)
	want := []trace.Series{nil, {{Slot: 2, Count: 5}}, {{Slot: 7, Count: 4}}}
	if !reflect.DeepEqual(win.Series, want) {
		t.Errorf("grown window series = %v, want %v", win.Series, want)
	}
	if len(win.Functions) != 3 {
		t.Errorf("grown window has %d functions, want 3", len(win.Functions))
	}
}

// TestRetrainWindowWarmBuildAllocations pins the arena reuse: once a builder
// has built a run's windows, building them again allocates no event
// storage — at most the returned trace header. A block the arena gains is
// kept, so a window that fit the blocks once fits them again.
func TestRetrainWindowWarmBuildAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	full, err := trace.Generate(trace.DefaultGeneratorConfig(120, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	training, simTr := full.Split(2 * 1440)
	var wb WindowBuilder
	windows := func(build func(at, w int)) {
		for _, w := range []int{training.Slots, 700} {
			for at := 240; at < simTr.Slots; at += 480 {
				build(at, w)
			}
		}
	}
	windows(func(at, w int) { wb.Build(training, simTr, at, w) }) // reach the largest
	header := uint64(unsafe.Sizeof(trace.Trace{}))
	// MemStats counts every goroutine's allocations: measure on one P, as
	// testing.AllocsPerRun does, so no other goroutine allocates in between.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	windows(func(at, w int) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		wb.Build(training, simTr, at, w)
		runtime.ReadMemStats(&after)
		objects, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if objects > 1 || bytes > 2*header {
			t.Errorf("w=%d t=%d: warm build allocated %d B in %d objects, want at most one %d-B header",
				w, at, bytes, objects, header)
		}
	})
}

// TestRetrainWindowGrowthAllocatesOverflow pins the arena's growth rule
// on a population whose every function fires at every slot, so a window of
// w slots holds n·w events. A window that outgrows the arena by k events
// allocates one overflow block of at most k events plus 1/16 of the window
// plus one series, not the window again; a smaller window afterwards
// allocates nothing but its trace header; and every window equals the
// Series.Window composition.
func TestRetrainWindowGrowthAllocatesOverflow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, slots = 100, 1000
	rec := trace.NewTrace(slots)
	for f := 0; f < n; f++ {
		evs := make([]trace.Event, slots)
		for s := range evs {
			evs[s] = trace.Event{Slot: int32(s), Count: 1}
		}
		rec.AddFunction(fmt.Sprintf("f%d", f), fmt.Sprintf("a%d", f), "u", trace.TriggerHTTP, evs)
	}
	var wb WindowBuilder
	build := func(w int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		win := wb.Build(nil, rec, w, w)
		runtime.ReadMemStats(&after)
		for f := range win.Series {
			if want := compositionWindow(nil, rec, f, w, w); !reflect.DeepEqual(win.Series[f], want) {
				t.Fatalf("w=%d f%d: window %v, want %v", w, f, win.Series[f], want)
			}
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	event := uint64(unsafe.Sizeof(trace.Event{}))
	header := uint64(unsafe.Sizeof(trace.Trace{}))
	largest := uint64(n * 500)
	if got := build(500); got < largest*event {
		t.Fatalf("first window allocated %d B, less than its %d B of events", got, largest*event)
	}
	grew := false
	for _, w := range []int{510, 520, 600, 601} {
		total := uint64(n * w)
		k := total - largest
		largest = total
		// The overflow block, which the allocator rounds up to whole 8-KiB
		// pages, the block list's slice and the header.
		bound := event*(k+total/16+uint64(w)) + 8<<10 + 4*header
		got := build(w)
		grew = grew || got > 2*header
		t.Logf("w=%d: %d events, %d over the last window: allocated %d B, bound %d B", w, total, k, got, bound)
		if got > bound {
			t.Errorf("w=%d: a window %d events over the last allocated %d B, want at most %d B", w, k, got, bound)
		}
		if smaller := build(w / 2); smaller > 2*header {
			t.Errorf("w=%d: a smaller window allocated %d B, want at most its %d-B header", w/2, smaller, header)
		}
	}
	if !grew {
		t.Error("no window outgrew the arena: the growth rule went untested")
	}
}

// sizedWindow is a recorded trace whose function f fires once at each of
// the first sizes[f] slots, so the window of every slot holds sizes[f]
// events of f: Build(nil, tr, tr.Slots, tr.Slots).
func sizedWindow(sizes []int) *trace.Trace {
	tr := trace.NewTrace(slices.Max(sizes))
	for f, k := range sizes {
		evs := make([]trace.Event, k)
		for s := range evs {
			evs[s] = trace.Event{Slot: int32(s), Count: 1}
		}
		tr.AddFunction(fmt.Sprintf("f%d", f), fmt.Sprintf("a%d", f), "u", trace.TriggerHTTP, evs)
	}
	return tr
}

// buildAlloc builds the window of sizes on wb, checks it against the
// Series.Window composition and returns the bytes the build allocated.
// Call it at GOMAXPROCS 1, as MemStats counts every goroutine.
func buildAlloc(t *testing.T, wb *WindowBuilder, sizes []int) uint64 {
	t.Helper()
	rec := sizedWindow(sizes)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	win := wb.Build(nil, rec, rec.Slots, rec.Slots)
	runtime.ReadMemStats(&after)
	for f := range win.Series {
		if want := compositionWindow(nil, rec, f, rec.Slots, rec.Slots); !reflect.DeepEqual(win.Series[f], want) {
			t.Fatalf("sizes %v f%d: window %v, want %v", sizes, f, win.Series[f], want)
		}
	}
	return after.TotalAlloc - before.TotalAlloc
}

// arenaEvents is the event capacity of wb's blocks.
func arenaEvents(wb *WindowBuilder) int {
	c := 0
	for _, b := range wb.blocks {
		c += len(b)
	}
	return c
}

// TestRetrainWindowPermutedSeriesFit pins what the longest-first placement
// buys over carving the series in function order: a window whose series
// lengths are a permutation of an earlier window's allocates nothing, even
// when the arena is two blocks. Blocks of 100 and 50 events come from a
// 100-event window and a 104-event one of lengths 60 and 44; the lengths 44
// and 60 then fit as 60 in the first block and 44 in the second. In
// function order the 44 took the first block and the 60 fitted neither
// rest, so a third block was allocated.
func TestRetrainWindowPermutedSeriesFit(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	header := uint64(unsafe.Sizeof(trace.Trace{}))
	var wb WindowBuilder
	buildAlloc(t, &wb, []int{60, 40})
	if got := buildAlloc(t, &wb, []int{60, 44}); got <= 2*header {
		t.Fatalf("a window 4 events over the arena allocated %d B: no overflow block", got)
	}
	if len(wb.blocks) != 2 || len(wb.blocks[0]) != 100 || len(wb.blocks[1]) != 44+104/16 {
		t.Fatalf("blocks of %d events, want [100 %d]", arenaEvents(&wb), 44+104/16)
	}
	if got := buildAlloc(t, &wb, []int{44, 60}); got > 2*header {
		t.Errorf("the permuted window allocated %d B, want at most its %d-B header", got, header)
	}
	if len(wb.blocks) != 2 {
		t.Errorf("the permuted window left %d blocks, want 2", len(wb.blocks))
	}
}

// TestRetrainWindowArenaStaysBounded drives one builder, as the daemon
// does for its whole life, through windows whose total and per-function
// lengths shift at every boundary. After every build the arena holds at
// most the largest window so far plus 1/16 plus one longest series per
// block (WindowBuilder's bound), and the same lengths over other functions
// build again without allocating.
func TestRetrainWindowArenaStaysBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	header := uint64(unsafe.Sizeof(trace.Trace{}))
	rng := rand.New(rand.NewPCG(7, 11))
	const n = 40
	var wb WindowBuilder
	largest, longest := 0, 0
	for build := 0; build < 60; build++ {
		// A total that wanders between 1 500 and 2 600 events, spread over
		// the functions by heavy-tailed weights drawn afresh each build.
		target := 1500 + rng.IntN(1100)
		weights := make([]float64, n)
		sum := 0.0
		for f := range weights {
			weights[f] = rng.ExpFloat64() * rng.ExpFloat64()
			sum += weights[f]
		}
		sizes := make([]int, n)
		total := 0
		for f, w := range weights {
			sizes[f] = int(w / sum * float64(target))
			total += sizes[f]
		}
		sizes[0]++ // a window with at least one event
		total++
		largest, longest = max(largest, total), max(longest, slices.Max(sizes))
		buildAlloc(t, &wb, sizes)
		if c, bound := arenaEvents(&wb), largest+largest/16+len(wb.blocks)*longest; c > bound {
			t.Fatalf("build %d: arena of %d events in %d blocks, over the bound %d (largest window %d, longest series %d)",
				build, c, len(wb.blocks), bound, largest, longest)
		}
		rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
		if got := buildAlloc(t, &wb, sizes); got > 2*header {
			t.Errorf("build %d: the same lengths over other functions allocated %d B", build, got)
		}
	}
	t.Logf("arena %d events in %d blocks for a largest window of %d", arenaEvents(&wb), len(wb.blocks), largest)
}

// TestRetrainEffectiveWindowDefaults pins the RetrainWindow resolution
// rule: explicit value wins, else the training window length, else
// RetrainEvery.
func TestRetrainEffectiveWindowDefaults(t *testing.T) {
	training, _ := retrainFixture()
	if got := (Options{RetrainEvery: 5, RetrainWindow: 7}).retrainEffectiveWindow(training); got != 7 {
		t.Errorf("explicit window: %d, want 7", got)
	}
	if got := (Options{RetrainEvery: 5}).retrainEffectiveWindow(training); got != training.Slots {
		t.Errorf("default window: %d, want %d", got, training.Slots)
	}
	if got := (Options{RetrainEvery: 5}).retrainEffectiveWindow(nil); got != 5 {
		t.Errorf("no-training window: %d, want 5", got)
	}
}

// countingRetrainer wraps a policy and records Retrain calls, to pin the
// retrain schedule and window sizing.
type countingRetrainer struct {
	Policy
	calls []int
	slots []int
}

func (c *countingRetrainer) Retrain(t int, w *trace.Trace) {
	c.calls = append(c.calls, t)
	c.slots = append(c.slots, w.Slots)
}

func TestRetrainSchedule(t *testing.T) {
	training, simTr := retrainFixture()
	p := &countingRetrainer{Policy: newOnDemand()}
	if _, err := Run(p, training, simTr, Options{RetrainEvery: 6}); err != nil {
		t.Fatal(err)
	}
	// 20 sim slots, every 6: retrains at 6, 12, 18 — never at 0.
	if want := []int{6, 12, 18}; !reflect.DeepEqual(p.calls, want) {
		t.Errorf("retrain slots = %v, want %v", p.calls, want)
	}
	for i, s := range p.slots {
		if s != training.Slots {
			t.Errorf("call %d window = %d slots, want training length %d", i, s, training.Slots)
		}
	}
	// Policies that do not implement Retrainer run unchanged under the same
	// options (same result as with retraining disabled).
	plain, err := Run(newOnDemand(), training, simTr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	retrained, err := Run(newOnDemand(), training, simTr, Options{RetrainEvery: 6})
	if err != nil {
		t.Fatal(err)
	}
	if d := plain.Diff(retrained); d != "" {
		t.Errorf("RetrainEvery changed a non-Retrainer policy's result:\n%s", d)
	}
}
