package sim

import (
	"reflect"
	"runtime"
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

// Materialize is materialize for the tests of package sim_test.
var Materialize = materialize

// materialize copies a window view into a materialized trace, reading its
// fields (Head, HeadBase, Series, Base) rather than the Parts reader the
// categorizer uses: what the tests hold is what the view contains.
func materialize(v *trace.Trace) *trace.Trace {
	out := &trace.Trace{Slots: v.Slots, Functions: v.Functions, Series: make([]trace.Series, len(v.Series))}
	for f := range v.Series {
		var s trace.Series
		if f < len(v.Head) {
			for _, e := range v.Head[f] {
				s = append(s, trace.Event{Slot: e.Slot - v.HeadBase, Count: e.Count})
			}
		}
		for _, e := range v.Series[f] {
			s = append(s, trace.Event{Slot: e.Slot - v.Base, Count: e.Count})
		}
		out.Series[f] = s
	}
	return out
}

func TestRetrainWindowInsideSim(t *testing.T) {
	training, simTr := retrainFixture()
	// Window [8, 16) on the sim timeline: only f0's slot-15 event, re-based
	// to window slot 7.
	win := materialize(BuildRetrainWindow(training, simTr, 16, 8))
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
	win := materialize(BuildRetrainWindow(training, simTr, 6, 10))
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
	win := materialize(BuildRetrainWindow(training, simTr, 6, 10))
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
	win := materialize(BuildRetrainWindow(training, simTr, 5, 40))
	if want := (trace.Series{{Slot: 27, Count: 1}, {Slot: 34, Count: 2}, {Slot: 35, Count: 3}}); !reflect.DeepEqual(win.Series[0], want) {
		t.Errorf("f0 = %v, want %v", win.Series[0], want)
	}
	// Without a training trace the same window is just the sim prefix,
	// shifted to the window tail.
	win = materialize(BuildRetrainWindow(nil, simTr, 5, 40))
	if want := (trace.Series{{Slot: 35, Count: 3}}); !reflect.DeepEqual(win.Series[0], want) {
		t.Errorf("no-training f0 = %v, want %v", win.Series[0], want)
	}
}

// TestRetrainWindowStraddleEmptyParts covers the straddling window whose
// training tail, simulation prefix, or both hold nothing for a function: the
// part that exists is all there is, and nothing at all stays a nil series.
func TestRetrainWindowStraddleEmptyParts(t *testing.T) {
	training := trace.NewTrace(10)
	simTr := trace.NewTrace(20)
	add := func(name string, train, sim []trace.Event) {
		training.AddFunction(name, "a", "u", trace.TriggerHTTP, train)
		simTr.AddFunction(name, "a", "u", trace.TriggerHTTP, sim)
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
	if win := materialize(BuildRetrainWindow(training, simTr, 6, 10)); !reflect.DeepEqual(win.Series, want) {
		t.Errorf("window series = %v, want %v", win.Series, want)
	}
}

// compositionWindow is the window's definition as a copy: the training
// tail and the simulation prefix each cut by Series.Window, the second
// shifted behind the first.
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

// TestRetrainWindowMatchesWindowComposition holds the view to
// compositionWindow at every boundary of a generated workload, before and
// after the window leaves the training trace, for a window as long as the
// training trace, a shorter one and one reaching before it (w = 5000 after
// 700). Each w's windows are all built before any is checked: a view
// shares no storage with another.
func TestRetrainWindowMatchesWindowComposition(t *testing.T) {
	full, err := trace.Generate(trace.DefaultGeneratorConfig(120, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	training, simTr := full.Split(2 * 1440)
	for _, w := range []int{training.Slots, 700, 5000} {
		views := map[int]*trace.Trace{}
		for at := 240; at < simTr.Slots; at += 240 {
			views[at] = BuildRetrainWindow(training, simTr, at, w)
		}
		for at, view := range views {
			win := materialize(view)
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
	if win := BuildRetrainWindow(training, history, 8, 10); len(win.Series) != 2 {
		t.Fatalf("first window has %d series, want 2", len(win.Series))
	}

	history.AddFunction("f2", "a", "u", trace.TriggerHTTP, []trace.Event{{Slot: 9, Count: 4}})
	training.Functions = history.Functions
	training.Series = append(training.Series, nil)
	history.Slots = 12
	// Window [2, 12) on the history timeline.
	win := materialize(BuildRetrainWindow(training, history, 12, 10))
	want := []trace.Series{nil, {{Slot: 2, Count: 5}}, {{Slot: 7, Count: 4}}}
	if !reflect.DeepEqual(win.Series, want) {
		t.Errorf("grown window series = %v, want %v", win.Series, want)
	}
	if len(win.Functions) != 3 {
		t.Errorf("grown window has %d functions, want 3", len(win.Functions))
	}
}

// TestRetrainWindowWarmBuildAllocations pins that a window copies no event:
// every build, the first or a later one, straddling the training trace or
// not, allocates the view's header and at most two slice headers a
// function, whatever the window's events.
func TestRetrainWindowWarmBuildAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	full, err := trace.Generate(trace.DefaultGeneratorConfig(120, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	training, simTr := full.Split(2 * 1440)
	n := uint64(simTr.NumFunctions())
	// The allocator's size classes round each slice up by at most 1/8.
	bound := uint64(unsafe.Sizeof(trace.Trace{})) + 2*n*uint64(unsafe.Sizeof(trace.Series{}))*9/8
	// MemStats counts every goroutine's allocations: measure on one P, as
	// testing.AllocsPerRun does, so no other goroutine allocates in between.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, w := range []int{training.Slots, 700, 5000} {
		for at := 240; at < simTr.Slots; at += 480 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			BuildRetrainWindow(training, simTr, at, w)
			runtime.ReadMemStats(&after)
			objects, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
			if objects > 3 || bytes > bound {
				t.Errorf("w=%d t=%d: a build allocated %d B in %d objects, want at most %d B in 3 (a header and two slices of %d functions)",
					w, at, bytes, objects, bound, n)
			}
		}
	}
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
