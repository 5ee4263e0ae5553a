package classify

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// one reads a series as a materialized trace holds it: one part at base 0.
func one(s trace.Series) trace.Parts { return trace.Parts{1: {Events: s}} }

// split reads s as a view holds a function: two parts cut before event k,
// each copied into an array of its own and stored at a base of its own
// (the head 1000 slots late, the rest 7 early), so a reader that mixed up
// the parts or their bases reads other slots.
func split(s trace.Series, k int) trace.Parts {
	shift := func(evs trace.Series, by int32) trace.Part {
		out := make(trace.Series, len(evs))
		for i, e := range evs {
			out[i] = trace.Event{Slot: e.Slot + by, Count: e.Count}
		}
		return trace.Part{Events: out, Base: by}
	}
	return trace.Parts{shift(s[:k], 1000), shift(s[k:], -7)}
}

// stitchWindow is the retrain window as a copy: the w slots before
// simulation slot t, the training tail first while the window straddles the
// training boundary, every event re-based so window slot 0 is simulation
// slot t-w. The categorizer oracle reads it, so the oracle shares no code
// with the view it is compared against.
func stitchWindow(training, recorded *trace.Trace, t, w int) *trace.Trace {
	a := t - w
	win := &trace.Trace{Slots: w, Functions: recorded.Functions, Series: make([]trace.Series, len(recorded.Series))}
	for f, s := range recorded.Series {
		var out trace.Series
		if a < 0 && training != nil && f < len(training.Series) {
			for _, e := range training.Series[f] {
				if slot := int(e.Slot) - training.Slots - a; slot >= 0 {
					out = append(out, trace.Event{Slot: int32(slot), Count: e.Count})
				}
			}
		}
		for _, e := range s {
			if int(e.Slot) >= max(a, 0) && int(e.Slot) < t {
				out = append(out, trace.Event{Slot: e.Slot - int32(a), Count: e.Count})
			}
		}
		win.Series[f] = out
	}
	return win
}

// materialize copies a view into a materialized trace, reading its fields
// (Head, HeadBase, Series, Base) rather than Parts.
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

// checkView holds Categorize over a view to Categorize over its
// materialized copy, outcome for outcome, and the copy to stitchWindow's.
func checkView(t *testing.T, name string, view, want *trace.Trace) {
	t.Helper()
	mat := materialize(view)
	if !reflect.DeepEqual(mat.Series, want.Series) {
		t.Fatalf("%s: the view holds other events than the stitched window", name)
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		got, ref := Categorize(view, DefaultConfig(), false, false), Categorize(mat, DefaultConfig(), false, false)
		runtime.GOMAXPROCS(prev)
		if !reflect.DeepEqual(got, ref) {
			for f := range ref.Profiles {
				if !reflect.DeepEqual(got.Profiles[f], ref.Profiles[f]) {
					t.Fatalf("%s, GOMAXPROCS %d: f%d = %+v over the view, %+v over its copy",
						name, procs, f, got.Profiles[f], ref.Profiles[f])
				}
			}
			t.Fatalf("%s, GOMAXPROCS %d: outcomes differ", name, procs)
		}
	}
}

// TestCategorizeViewMatchesMaterialized is the differential test of the
// two-part read path: over every library scenario at seeds 1 and 2,
// Categorize over sim.BuildRetrainWindow's view equals Categorize over the
// view's materialized copy, at GOMAXPROCS 1 and 2, for windows that
// straddle the training tail (two parts), end exactly where it does
// (t = w: the recorded part alone, at base 0), lie past it (one part at a
// positive base) and reach before the training trace. A daemon-style
// recorded trace adds functions admitted after training (no head part) and
// functions whose head or recorded part is empty.
func TestCategorizeViewMatchesMaterialized(t *testing.T) {
	const functions, days, trainDays = 160, 6, 4
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	windows := []struct{ t, w int }{
		{720, trainDays * 1440},         // straddles the training tail
		{2160, trainDays * 1440},        // straddles, most of it training
		{1440, 1440},                    // t = w: recorded history alone
		{2160, 1440},                    // past the training tail
		{720, trainDays*1440 + 1440},    // reaches before the training trace
		{1440, trainDays*1440 + 1440*2}, // and before it with t = w - T
	}
	for i, name := range trace.ScenarioNames() {
		for _, seed := range seeds {
			gcfg := trace.DefaultGeneratorConfig(functions, days, 60+seed)
			sc, err := trace.NamedScenario(name, trainDays*1440, days*1440)
			if err != nil {
				t.Fatal(err)
			}
			sc.Seed = seed + int64(i)
			gcfg.Scenario = sc.Normalize()
			full, err := trace.Generate(gcfg)
			if err != nil {
				t.Fatal(err)
			}
			train, simTr := full.Split(trainDays * 1440)
			for _, win := range windows {
				label := fmt.Sprintf("%s/seed%d t=%d w=%d", name, seed, win.t, win.w)
				checkView(t, label, sim.BuildRetrainWindow(train, simTr, win.t, win.w), stitchWindow(train, simTr, win.t, win.w))
			}
			if name == "churn" {
				train, rec := daemonHistory(train, simTr)
				for _, win := range windows[:4] {
					label := fmt.Sprintf("daemon %s/seed%d t=%d w=%d", name, seed, win.t, win.w)
					checkView(t, label, sim.BuildRetrainWindow(train, rec, win.t, win.w), stitchWindow(train, rec, win.t, win.w))
				}
			}
		}
	}
}

// daemonHistory is a serving daemon's shape of the pair: the recorded
// history holds every simulated function plus, after them, functions
// admitted since training (no training series), some of them in an
// existing function's application and user so they are link candidates;
// and a few trained functions lose either their training tail or their
// recorded events, so one of their parts is empty.
func daemonHistory(train, simTr *trace.Trace) (*trace.Trace, *trace.Trace) {
	training := &trace.Trace{Slots: train.Slots, Functions: train.Functions, Series: append([]trace.Series(nil), train.Series...)}
	rec := &trace.Trace{Slots: simTr.Slots, Functions: append([]trace.Function(nil), simTr.Functions...), Series: append([]trace.Series(nil), simTr.Series...)}
	for f := 0; f < len(training.Series); f += 7 {
		training.Series[f] = training.Series[f].Between(0, training.Slots/2) // no tail
	}
	for f := 3; f < len(rec.Series); f += 7 {
		rec.Series[f] = nil // nothing recorded
	}
	for k := 0; k < 12; k++ {
		peer := rec.Functions[(5*k)%len(rec.Functions)]
		app, user := peer.App, peer.User
		if k%3 == 0 {
			app, user = fmt.Sprintf("new-app-%d", k), fmt.Sprintf("new-user-%d", k)
		}
		// Admitted late, then firing every 30 slots, or copying the peer's
		// recorded fires two slots later.
		var evs []trace.Event
		if k%2 == 0 {
			for s := 100 * k; s < rec.Slots; s += 30 {
				evs = append(evs, trace.Event{Slot: int32(s), Count: 1})
			}
		} else {
			for _, e := range rec.Series[peer.ID] {
				if e.Slot+2 < int32(rec.Slots) {
					evs = append(evs, trace.Event{Slot: e.Slot + 2, Count: e.Count})
				}
			}
		}
		rec.AddFunction(fmt.Sprintf("admitted-%d", k), app, user, trace.TriggerHTTP, evs)
	}
	return training, rec
}
