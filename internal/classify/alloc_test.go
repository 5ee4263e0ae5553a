package classify

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

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

// TestCategorizeAllocationBudget holds Categorize to allocating what escapes
// it. One serial call over the QuickSettings training trace may allocate at
// most four times the bytes of its result (Outcome.Profiles plus every
// profile's Values and Links), plus its scratch's high-water mark, plus the
// app/user peer index trace builds for it; and the heap objects it creates
// must stay a small constant per function. A per-function slice creeping
// back into the pass — a float copy, a sorted copy, a slot list — breaks
// the first bound on bytes or the second on objects. A second call through
// the same Categorizer — what core.SPES makes at every retrain boundary —
// must not pay for its scratch again.
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

	var c Categorizer
	var out *Outcome
	bytes, objects := allocated(func() { out = c.Categorize(train, cfg, false, false) })

	escaping := sliceBytes(out.Profiles)
	for _, p := range out.Profiles {
		escaping += sliceBytes(p.Values) + sliceBytes(p.Links)
	}
	// Scratch buffers at least double when they grow (sized), so the ones
	// outgrown on the way cost less than the high-water mark again.
	scratchBytes := sliceBytes(c.ws) + c.ws[0].footprint()
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

	// A second call on the grown scratch allocates only what escapes, the
	// peer index and the leftover lists.
	again, _ := allocated(func() { c.Categorize(train, cfg, false, false) })
	t.Logf("warm call allocated %d B", again)
	if steady := 2*escaping + peerIndex; again > steady {
		t.Errorf("Categorizer on warm scratch allocated %d B, want at most %d B", again, steady)
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
	var c Categorizer
	first := c.Categorize(train, cfg, false, false)
	want := Categorize(train, cfg, false, false)
	if !reflect.DeepEqual(first, want) {
		t.Fatal("a Categorizer's first call differs from Categorize")
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

	// Scribbling over everything a first call returned, and over the scratch
	// it ran on, must not reach a second call on the same scratch.
	for fid := range first.Profiles {
		p := &first.Profiles[fid]
		for i := range p.Values {
			p.Values[i] = -7
		}
		for i := range p.Links {
			p.Links[i] = Link{Cand: -7, Lag: -7}
		}
	}
	if second := c.Categorize(train, cfg, false, false); !reflect.DeepEqual(second, want) {
		t.Fatal("a second Categorize on the same scratch saw the first call's mutated profiles")
	}
}

var benchOutcome *Outcome

// BenchmarkCategorize times one offline pass over the DefaultSettings
// training trace (2000 functions, 12 days), the paper's configuration.
func BenchmarkCategorize(b *testing.B) {
	train := trainingTrace(b, 2000, 14, 12)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchOutcome = Categorize(train, cfg, false, false)
	}
}
