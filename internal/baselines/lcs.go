package baselines

import (
	"fmt"
	"slices"

	"repro/internal/sim"
	"repro/internal/trace"
)

// LCS implements the "least-recently-used warm container" policy of Sethi
// et al. (ICDCN'23): every invoked function stays warm; when the warm pool
// exceeds its capacity, the least recently used container is recycled. The
// SPES paper cites LCS as related work; it is included here as an extra
// comparison point.
//
// The LRU list is always sorted by (last, FuncID) — Train touches in that
// sorted order and Tick touches each slot's invocations FuncID-ascending
// with equal last — so the head is the minimum of that total order and
// same-slot ties recycle in ascending FuncID order.
type LCS struct {
	sim.LoadedSet

	capacity int

	// prev/next implement an intrusive doubly linked LRU list over
	// function IDs; -1 terminates.
	prev, next []int
	head, tail int
}

// NewLCS creates the policy with a warm-pool capacity in instances.
func NewLCS(capacity int) *LCS {
	if capacity <= 0 {
		panic(fmt.Sprintf("baselines: LCS capacity must be positive, got %d", capacity))
	}
	return &LCS{capacity: capacity}
}

// Name implements sim.Policy.
func (p *LCS) Name() string { return "LCS" }

// Capacity implements sim.CapacityPolicy.
func (p *LCS) Capacity() int { return p.capacity }

// Train implements sim.Policy: the warm pool starts the simulation holding
// the most recently invoked training functions, up to capacity (training
// recency rebased to negative slots, ties FuncID-ascending).
func (p *LCS) Train(training *trace.Trace) {
	n := training.NumFunctions()
	p.Reset(n)
	p.prev = make([]int, n)
	p.next = make([]int, n)
	for i := 0; i < n; i++ {
		p.prev[i] = -1
		p.next[i] = -1
	}
	p.head, p.tail = -1, -1

	type recency struct{ fid, last int }
	var seen []recency
	for fid, ser := range training.Series {
		if last := ser.LastSlot(); last >= 0 {
			seen = append(seen, recency{fid: fid, last: int(last) - training.Slots})
		}
	}
	slices.SortFunc(seen, func(a, b recency) int {
		if a.last != b.last {
			return a.last - b.last
		}
		return a.fid - b.fid // deterministic LRU order for same-slot ties
	})
	for _, r := range seen {
		p.Load(trace.FuncID(r.fid))
		p.touch(r.fid)
	}
	p.enforce()
}

// detach removes f from the LRU list.
func (p *LCS) detach(f int) {
	if p.prev[f] >= 0 {
		p.next[p.prev[f]] = p.next[f]
	} else if p.head == f {
		p.head = p.next[f]
	}
	if p.next[f] >= 0 {
		p.prev[p.next[f]] = p.prev[f]
	} else if p.tail == f {
		p.tail = p.prev[f]
	}
	p.prev[f], p.next[f] = -1, -1
}

// touch moves f to the most-recently-used end (tail).
func (p *LCS) touch(f int) {
	p.detach(f)
	if p.tail < 0 {
		p.head, p.tail = f, f
		return
	}
	p.prev[f] = p.tail
	p.next[p.tail] = f
	p.tail = f
}

// Tick implements sim.Policy: refresh recency, admit newcomers, then
// recycle down to capacity.
func (p *LCS) Tick(t int, invs []trace.FuncCount) {
	for _, fc := range invs {
		p.Load(fc.Func)
		p.touch(int(fc.Func))
	}
	p.enforce()
}

// enforce recycles least-recently-used containers until the pool fits.
func (p *LCS) enforce() {
	for p.LoadedCount() > p.capacity && p.head >= 0 {
		victim := p.head
		p.detach(victim)
		p.Unload(trace.FuncID(victim))
	}
}

// NextWake implements sim.IdleSkipper. LCS has no timers: the warm pool only
// changes on invocations (an empty Tick cannot recycle, because Train and
// Tick both leave the pool at or under capacity), so an invocation-free span
// never needs a wake-up.
func (p *LCS) NextWake(after, limit int) (int, bool) { return -1, true }
