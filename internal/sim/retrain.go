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

// WindowBuilder builds the sliding-window traces handed to Retrainer.Retrain
// into storage it keeps between builds: one event arena that every
// function's window series is carved from, and the per-function series
// slice. The arena only grows, to hold the largest window built so far, so
// a boundary allocates event storage only when its window outgrows every
// earlier one and otherwise overwrites the arena. The zero value is ready
// to use; a WindowBuilder is not safe for concurrent use.
type WindowBuilder struct {
	arena  []trace.Event
	series []trace.Series
	// parts holds, per function, the training tail (2·fid) and the
	// recorded part (2·fid+1) of the window being built: located once,
	// counted to size the arena, then copied into it. Cleared after each
	// build so the builder does not pin its inputs.
	parts []trace.Series
}

// Build returns the window at simulation slot t: w slots of history ending
// just before t, re-based so window slot 0 is simulation slot t-w. Slots
// still inside the training trace (t < w) are filled from it; anything
// before recorded history is empty, and a function with no events in the
// window has a nil series. Function metadata is shared with recorded.
//
// The window is borrowed: its series point into the builder's storage,
// which the next Build overwrites.
func (b *WindowBuilder) Build(training, recorded *trace.Trace, t, w int) *trace.Trace {
	n := len(recorded.Series)
	a := t - w // simulation-timeline slot where the window begins
	// Per function the window is the simulation events in [max(a, 0), t) and,
	// while it still straddles the training boundary (a < 0), the tail of the
	// training series before them, both located by binary search. Simulation
	// slot a re-bases to window slot 0, which on the training timeline is
	// slot trainSlots+a.
	var from int32
	straddle := a < 0 && training != nil
	if straddle {
		from = int32(training.Slots + a)
	}
	if 2*n > cap(b.parts) {
		b.parts = make([]trace.Series, 2*n)
	}
	parts := b.parts[:2*n]
	total := 0
	for fid := 0; fid < n; fid++ {
		var head trace.Series
		if straddle {
			head = eventsIn(training.Series[fid], from, int32(training.Slots))
		}
		tail := eventsIn(recorded.Series[fid], int32(max(a, 0)), int32(t))
		parts[2*fid], parts[2*fid+1] = head, tail
		total += len(head) + len(tail)
	}
	if total > cap(b.arena) {
		// A first window is sized exactly. One that outgrows an earlier
		// window gets 1/16 headroom: while recorded history replaces the
		// training tail, the daemon's windows grow by up to ~6% a boundary,
		// and the next few then fit.
		size := total
		if cap(b.arena) > 0 {
			size += total / 16
		}
		b.arena = make([]trace.Event, size)
	}
	if n > cap(b.series) {
		b.series = make([]trace.Series, n)
	}
	b.series = b.series[:n]

	off := 0
	for fid := 0; fid < n; fid++ {
		head, tail := parts[2*fid], parts[2*fid+1]
		k := len(head) + len(tail)
		if k == 0 {
			b.series[fid] = nil
			continue
		}
		out := b.arena[off : off+k : off+k]
		for i, e := range head {
			out[i] = trace.Event{Slot: e.Slot - from, Count: e.Count}
		}
		for i, e := range tail {
			out[len(head)+i] = trace.Event{Slot: e.Slot - int32(a), Count: e.Count}
		}
		b.series[fid] = out
		off += k
	}
	clear(parts)
	return &trace.Trace{Slots: w, Functions: recorded.Functions, Series: b.series}
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
