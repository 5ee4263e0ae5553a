package sim

import (
	"sort"

	"repro/internal/trace"
)

// retrainEffectiveWindow resolves Options.RetrainWindow: 0 defaults to the
// training window length (the retrained categorization sees as much history
// as the offline phase did), or to RetrainEvery when there is no training
// trace.
func (o Options) retrainEffectiveWindow(training *trace.Trace) int {
	if o.RetrainWindow > 0 {
		return o.RetrainWindow
	}
	if training != nil && training.Slots > 0 {
		return training.Slots
	}
	return o.RetrainEvery
}

// retrainWindow builds the sliding-window trace handed to Retrainer.Retrain
// at simulation slot t: w slots of history ending just before t, re-based
// so window slot 0 is simulation slot t-w. Slots still inside the training
// trace (t < w) are filled from it; anything before recorded history is
// empty. Function metadata is shared with the simulation trace — only the
// window's event slices are fresh — so the build costs O(events in window).
func retrainWindow(training, simTrace *trace.Trace, t, w int) *trace.Trace {
	win := &trace.Trace{Slots: w, Functions: simTrace.Functions}
	win.Series = make([]trace.Series, len(simTrace.Series))
	a := t - w // simulation-timeline slot where the window begins
	// Per function the window is the simulation events in [max(a, 0), t) and,
	// while it still straddles the training boundary (a < 0), the tail of the
	// training series before them: both located by binary search and written
	// once into an exactly sized series. Simulation slot a re-bases to window
	// slot 0, which on the training timeline is slot trainSlots+a.
	for fid := range simTrace.Series {
		var head trace.Series
		var from int32
		if a < 0 && training != nil {
			from = int32(training.Slots + a)
			head = eventsIn(training.Series[fid], from, int32(training.Slots))
		}
		tail := eventsIn(simTrace.Series[fid], int32(max(a, 0)), int32(t))
		if len(head)+len(tail) == 0 {
			continue
		}
		out := make(trace.Series, 0, len(head)+len(tail))
		for _, e := range head {
			out = append(out, trace.Event{Slot: e.Slot - from, Count: e.Count})
		}
		for _, e := range tail {
			out = append(out, trace.Event{Slot: e.Slot - int32(a), Count: e.Count})
		}
		win.Series[fid] = out
	}
	return win
}

// eventsIn returns the events of s with slots in [from, to) as a view into
// s, slots unchanged.
func eventsIn(s trace.Series, from, to int32) trace.Series {
	lo := sort.Search(len(s), func(i int) bool { return s[i].Slot >= from })
	hi := sort.Search(len(s), func(i int) bool { return s[i].Slot >= to })
	if lo >= hi {
		return nil
	}
	return s[lo:hi]
}
