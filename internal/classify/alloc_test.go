package classify

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/trace"
)

// trainingTrace generates the training window of an experiments.Settings
// workload (experiments imports this package, so the settings are spelled
// out): QuickSettings is (300, 6, 4), DefaultSettings (2000, 14, 12), both
// at seed 1.
func trainingTrace(tb testing.TB, functions, days, trainDays int) *trace.Trace {
	tb.Helper()
	full, err := trace.Generate(trace.DefaultGeneratorConfig(functions, days, 1))
	if err != nil {
		tb.Fatal(err)
	}
	train, _ := full.Split(trainDays * 1440)
	return train
}

// sliceBytes is the size of a slice's backing array.
func sliceBytes[T any](s []T) uint64 {
	var zero T
	return uint64(cap(s)) * uint64(unsafe.Sizeof(zero))
}

// footprint is the total size of the buffers the scratch holds — every
// slice field, found by reflection so a buffer added later is counted too.
// Buffers only ever grow, so this is the scratch's high-water mark.
func (w *scratch) footprint() uint64 {
	var total uint64
	var add func(v reflect.Value)
	add = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Slice:
			total += uint64(v.Cap()) * uint64(v.Type().Elem().Size())
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				add(v.Index(i))
			}
		}
	}
	for v, i := reflect.ValueOf(w).Elem(), 0; i < v.NumField(); i++ {
		add(v.Field(i))
	}
	return total
}

// allocated runs fn and returns the bytes and heap objects it allocated.
func allocated(fn func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// drainScratch empties the scratch free list, so the next Categorize call
// starts on fresh scratch.
func drainScratch() {
	for len(scratchFree) > 0 {
		<-scratchFree
	}
}

// TestCategorizeAllocationBudget holds Categorize to allocating what escapes
// it. One serial call over the QuickSettings training trace, on fresh
// scratch, may allocate at most four times the bytes of its result
// (Outcome.Profiles plus every profile's Values and Links), plus its
// scratch's high-water mark, plus the app/user peer index trace builds for
// it; and the heap objects it creates must stay a small constant per
// function. A per-function slice creeping back into the pass — a float
// copy, a sorted copy, a slot list — breaks the first bound on bytes or the
// second on objects. A second, separate call — what core.SPES makes at
// every retrain boundary, and each shard's instance in Train — must not pay
// for its scratch again: it borrows the one the first returned to the free
// list.
func TestCategorizeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	train := trainingTrace(t, 300, 6, 4)
	cfg := DefaultConfig()
	cfg.Workers = 1
	n := uint64(train.NumFunctions())

	peerIndex, _ := allocated(func() {
		train.AppFunctions()
		train.UserFunctions()
	})

	drainScratch()
	var out *Outcome
	bytes, objects := allocated(func() { out = Categorize(train, cfg, false, false) })
	if len(scratchFree) != 1 {
		t.Fatalf("%d scratches on the free list after a one-worker call, want the one it borrowed", len(scratchFree))
	}
	w := <-scratchFree
	scratchFree <- w

	escaping := sliceBytes(out.Profiles)
	for _, p := range out.Profiles {
		escaping += sliceBytes(p.Values) + sliceBytes(p.Links)
	}
	// Scratch buffers at least double when they grow (sized), so the ones
	// outgrown on the way cost less than the high-water mark again.
	scratchBytes := uint64(unsafe.Sizeof(*w)) + w.footprint()
	budget := 4*escaping + 2*scratchBytes + peerIndex
	t.Logf("allocated %d B in %d objects over %d functions; escaping %d B, scratch %d B, peer index %d B, budget %d B",
		bytes, objects, n, escaping, scratchBytes, peerIndex, budget)
	if bytes > budget {
		t.Errorf("Categorize allocated %d B, budget %d B (4 x %d escaping + 2 x %d scratch + %d peer index)",
			bytes, budget, escaping, scratchBytes, peerIndex)
	}
	const objectsPerFunction = 4
	if objects > objectsPerFunction*n {
		t.Errorf("Categorize created %d heap objects for %d functions, want at most %d each",
			objects, n, objectsPerFunction)
	}

	// A second call borrows the grown scratch and allocates only what
	// escapes, the peer index and the leftover lists.
	again, _ := allocated(func() { Categorize(train, cfg, false, false) })
	t.Logf("warm call allocated %d B", again)
	if steady := 2*escaping + peerIndex; again > steady {
		t.Errorf("a second Categorize call allocated %d B, want at most %d B", again, steady)
	}
}

// TestProfilesOwnTheirSlices pins Profile's aliasing contract: Values and
// Links belong to their profile alone. core.SPES keeps both for the life of
// the policy and the adaptive strategy rewrites Values in place, so a view
// into worker scratch or into another profile would corrupt categorizations
// silently.
func TestProfilesOwnTheirSlices(t *testing.T) {
	train := trainingTrace(t, 300, 6, 4)
	cfg := DefaultConfig()
	cfg.Workers = 1
	drainScratch()
	want := Categorize(train, cfg, false, false)
	first := Categorize(train, cfg, false, false)
	if !reflect.DeepEqual(first, want) {
		t.Fatal("a call on borrowed scratch differs from one on fresh scratch")
	}

	mutated := 0
	for fid := range first.Profiles {
		p := &first.Profiles[fid]
		if cap(p.Values) != len(p.Values) || cap(p.Links) != len(p.Links) {
			t.Errorf("f%d: Values len %d cap %d, Links len %d cap %d: want exactly sized",
				fid, len(p.Values), cap(p.Values), len(p.Links), cap(p.Links))
		}
		if len(p.Values) == 0 && len(p.Links) == 0 {
			continue
		}
		values, links := slices.Clone(p.Values), slices.Clone(p.Links)
		for i := range p.Values {
			p.Values[i] = -1
		}
		for i := range p.Links {
			p.Links[i] = Link{Cand: -1, Lag: -1}
		}
		mutated++
		// Every other profile still reads as categorized...
		for other := range first.Profiles {
			if other != fid && !reflect.DeepEqual(first.Profiles[other], want.Profiles[other]) {
				t.Fatalf("rewriting f%d's slices changed f%d: %+v, want %+v",
					fid, other, first.Profiles[other], want.Profiles[other])
			}
		}
		// ...and this one is restored before the next is tried.
		copy(p.Values, values)
		copy(p.Links, links)
	}
	if mutated == 0 {
		t.Fatal("no profile carried Values or Links")
	}

	// Scribbling over everything a first call returned must not reach a
	// later call on the scratch it ran on (one worker, one free scratch).
	for fid := range first.Profiles {
		p := &first.Profiles[fid]
		for i := range p.Values {
			p.Values[i] = -7
		}
		for i := range p.Links {
			p.Links[i] = Link{Cand: -7, Lag: -7}
		}
	}
	if second := Categorize(train, cfg, false, false); !reflect.DeepEqual(second, want) {
		t.Fatal("a second Categorize on the same scratch saw the first call's mutated profiles")
	}
}

var benchOutcome *Outcome

// BenchmarkCategorize times one offline pass over three windows. "paper"
// is the DefaultSettings training trace (2000 functions, 12 days), the
// paper's configuration. "retrain-window" is what a retrain boundary of the
// benchmark's drift workload covers: 1000 functions over 14 days, a 1 %
// shift cohort and every function drifting 15 slots a day from the 12-day
// train/simulation split, and the 12-day window cut at the first 720-slot
// boundary, straddling both halves, copied into one part a function
// (stitchWindow). "retrain-view" is the same window as the simulator hands
// it over, the two-part view sim.BuildRetrainWindow builds.
func BenchmarkCategorize(b *testing.B) {
	for _, c := range []struct {
		name   string
		window func(testing.TB) *trace.Trace
	}{
		{"paper", func(tb testing.TB) *trace.Trace { return trainingTrace(tb, 2000, 14, 12) }},
		{"retrain-window", func(tb testing.TB) *trace.Trace { return driftRetrainWindow(tb, stitchWindow) }},
		{"retrain-view", func(tb testing.TB) *trace.Trace { return driftRetrainWindow(tb, sim.BuildRetrainWindow) }},
	} {
		win := c.window(b)
		b.Run(c.name, func(b *testing.B) {
			cfg := DefaultConfig()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchOutcome = Categorize(win, cfg, false, false)
			}
		})
	}
}

// driftRetrainWindow builds BenchmarkCategorize's retrain window with
// build.
func driftRetrainWindow(tb testing.TB, build func(training, recorded *trace.Trace, t, w int) *trace.Trace) *trace.Trace {
	tb.Helper()
	const functions, days, trainDays, boundary = 1000, 14, 12, 720
	split := trainDays * 1440
	gcfg := trace.DefaultGeneratorConfig(functions, days, 1)
	gcfg.Scenario = trace.ScenarioConfig{Name: "benchmark", Seed: 1, Phases: []trace.Phase{
		{Kind: trace.PhaseShift, Start: split, Fraction: 0.01},
		{Kind: trace.PhaseDrift, Start: split, Fraction: 1, Amplitude: 15},
	}}
	full, err := trace.Generate(gcfg)
	if err != nil {
		tb.Fatal(err)
	}
	train, simTr := full.Split(split)
	return build(train, simTr, boundary, train.Slots)
}
