package sim

import (
	"reflect"
	"testing"

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
	win := retrainWindow(training, simTr, 16, 8)
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
	win := retrainWindow(training, simTr, 6, 10)
	if want := (trace.Series{{Slot: 3, Count: 2}, {Slot: 4, Count: 3}}); !reflect.DeepEqual(win.Series[0], want) {
		t.Errorf("f0 = %v, want %v", win.Series[0], want)
	}
	if want := (trace.Series{{Slot: 8, Count: 5}}); !reflect.DeepEqual(win.Series[1], want) {
		t.Errorf("f1 = %v, want %v", win.Series[1], want)
	}
}

func TestRetrainWindowBeyondRecordedHistory(t *testing.T) {
	training, simTr := retrainFixture()
	// A 40-slot window at sim slot 5 reaches 25 slots before recorded
	// history: everything known lands at the tail, the prefix stays empty.
	win := retrainWindow(training, simTr, 5, 40)
	if want := (trace.Series{{Slot: 27, Count: 1}, {Slot: 34, Count: 2}, {Slot: 35, Count: 3}}); !reflect.DeepEqual(win.Series[0], want) {
		t.Errorf("f0 = %v, want %v", win.Series[0], want)
	}
	// Without a training trace the same window is just the sim prefix,
	// shifted to the window tail.
	win = retrainWindow(nil, simTr, 5, 40)
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

	win := retrainWindow(training, simTr, 6, 10)
	want := []trace.Series{
		{{Slot: 6, Count: 7}},
		{{Slot: 0, Count: 2}, {Slot: 2, Count: 1}},
		nil,
		nil,
	}
	if !reflect.DeepEqual(win.Series, want) {
		t.Errorf("window series = %v, want %v", win.Series, want)
	}
}

// TestRetrainWindowMatchesWindowComposition holds the single-copy build to
// the definition it replaced — the training tail and the simulation prefix
// each cut by Series.Window, the second shifted behind the first — at every
// boundary of a generated workload, before and after the window leaves the
// training trace.
func TestRetrainWindowMatchesWindowComposition(t *testing.T) {
	full, err := trace.Generate(trace.DefaultGeneratorConfig(120, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	training, simTr := full.Split(2 * 1440)
	for _, w := range []int{training.Slots, 700, 5000} {
		for at := 240; at < simTr.Slots; at += 240 {
			win := retrainWindow(training, simTr, at, w)
			a := at - w
			for fid := range simTr.Series {
				var want trace.Series
				if a >= 0 {
					want = simTr.Series[fid].Window(int32(a), int32(at))
				} else {
					want = training.Series[fid].Window(int32(training.Slots+a), int32(training.Slots))
					for _, e := range simTr.Series[fid].Window(0, int32(at)) {
						want = append(want, trace.Event{Slot: e.Slot - int32(a), Count: e.Count})
					}
				}
				if !reflect.DeepEqual(win.Series[fid], want) {
					t.Fatalf("w=%d t=%d f%d: window %v, want %v", w, at, fid, win.Series[fid], want)
				}
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
	plain.Overhead, retrained.Overhead = 0, 0
	if !reflect.DeepEqual(plain, retrained) {
		t.Error("RetrainEvery changed a non-Retrainer policy's result")
	}
}
