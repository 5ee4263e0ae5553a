package sim

import (
	"cmp"
	"slices"

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
// into storage it keeps between builds: an event arena that every
// function's window series is carved from, and the per-function series
// slice. The arena is a list of blocks that only grows, and no block is
// ever copied or re-allocated. Series are placed longest first, each whole
// into the first block with room. The first window is sized exactly into
// one block; when a series fits no block, one more block takes it and
// everything still to place, plus 1/16 of the window. So a boundary
// allocates event storage only when its window fits the blocks no more,
// and then only the overflow. The placement depends on the series' lengths
// alone, so lengths that fitted once fit again, whichever functions they
// belong to. The longest-first order also caps the free tails the blocks
// leave: at a growth every block has less room left than the series that
// fits none, so the arena stays under the window plus 1/16 plus one
// longest series a block.
// The zero value is ready to use; a WindowBuilder is not safe for
// concurrent use.
type WindowBuilder struct {
	blocks [][]trace.Event
	used   []int // per block, the events this build carved from it
	series []trace.Series
	// parts holds, per function, the training tail (2·fid) and the
	// recorded part (2·fid+1) of the window being built: located once,
	// counted to size the overflow, then copied into the arena. Cleared
	// after each build so the builder does not pin its inputs.
	parts []trace.Series
	order []int32 // the functions with events in the window, longest first
}

// Build returns the window at simulation slot t: w slots of history ending
// just before t, re-based so window slot 0 is simulation slot t-w. Slots
// still inside the training trace (t < w) are filled from it, a function
// past its table (admitted since) having no training history; anything
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
	if n > cap(b.series) {
		b.series = make([]trace.Series, n)
	}
	if n > cap(b.order) {
		b.order = make([]int32, 0, n)
	}
	parts, series, order := b.parts[:2*n], b.series[:n], b.order[:0]
	length := func(fid int32) int { return len(parts[2*fid]) + len(parts[2*fid+1]) }
	total := 0
	for fid := 0; fid < n; fid++ {
		var head trace.Series
		if straddle && fid < len(training.Series) {
			head = training.Series[fid].Between(int(from), training.Slots)
		}
		tail := recorded.Series[fid].Between(max(a, 0), t)
		parts[2*fid], parts[2*fid+1] = head, tail
		series[fid] = nil
		if k := len(head) + len(tail); k > 0 {
			order = append(order, int32(fid))
			total += k
		}
	}
	slices.SortFunc(order, func(f, g int32) int {
		if c := cmp.Compare(length(g), length(f)); c != 0 {
			return c
		}
		return cmp.Compare(f, g)
	})

	// Each series goes whole into the first block with room. Past the last
	// block, what is left to place gets a new one with 1/16 headroom (none
	// for a first window, sized exactly): while recorded history replaces
	// the training tail, the daemon's windows grow by up to ~6% a boundary,
	// and the next few then fit. Everything left is no longer than the
	// series that opened the block, so a build opens at most one.
	clear(b.used)
	left := total
	for _, fid := range order {
		head, tail := parts[2*fid], parts[2*fid+1]
		k := len(head) + len(tail)
		bi := 0
		for bi < len(b.blocks) && b.used[bi]+k > len(b.blocks[bi]) {
			bi++
		}
		if bi == len(b.blocks) {
			size := left
			if bi > 0 {
				size += total / 16
			}
			b.blocks = append(b.blocks, make([]trace.Event, size))
			b.used = append(b.used, 0)
		}
		off := b.used[bi]
		out := b.blocks[bi][off : off+k : off+k]
		for i, e := range head {
			out[i] = trace.Event{Slot: e.Slot - from, Count: e.Count}
		}
		for i, e := range tail {
			out[len(head)+i] = trace.Event{Slot: e.Slot - int32(a), Count: e.Count}
		}
		series[fid] = out
		b.used[bi] += k
		left -= k
	}
	clear(parts)
	b.series, b.order = series, order
	return &trace.Trace{Slots: w, Functions: recorded.Functions, Series: series}
}
