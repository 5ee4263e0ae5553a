package baselines

import (
	"container/heap"
	"fmt"

	"repro/internal/trace"
)

// FaaSCache implements the Greedy-Dual-Size-Frequency caching policy of
// Fuerst & Sharma (ASPLOS'21): keeping a function warm is treated as
// keeping an object cached. Every function stays loaded until memory
// pressure forces an eviction of the lowest-priority instance, with
// priority = clock + frequency * cost / size. Under the paper's simulation
// principles cost and size are uniform, so priority reduces to
// clock + frequency; the clock ratchets up to each evicted priority,
// ageing cold entries out. Equal priorities evict in ascending FuncID
// order, which makes the eviction order a deterministic total order.
type FaaSCache struct {
	capacity int

	set   *loadedSet
	clock float64
	freq  []int64
	prio  []float64
	h     *cacheHeap
	index []int // heap index per function, -1 when not loaded
}

// NewFaaSCache creates the policy with a memory capacity in instances. The
// SPES evaluation sets capacity to the maximum memory SPES itself used.
func NewFaaSCache(capacity int) *FaaSCache {
	if capacity <= 0 {
		panic(fmt.Sprintf("baselines: FaaSCache capacity must be positive, got %d", capacity))
	}
	return &FaaSCache{capacity: capacity}
}

// Name implements sim.Policy.
func (p *FaaSCache) Name() string { return "FaaSCache" }

// Capacity implements sim.CapacityPolicy.
func (p *FaaSCache) Capacity() int { return p.capacity }

// Train implements sim.Policy: training invocation counts seed the
// frequencies, and the cache starts the simulation holding the
// highest-priority functions up to capacity — the state it would be in had
// it run through the training window.
func (p *FaaSCache) Train(training *trace.Trace) {
	n := training.NumFunctions()
	p.set = newLoadedSet(n)
	p.clock = 0
	p.freq = make([]int64, n)
	p.prio = make([]float64, n)
	p.index = make([]int, n)
	for i := range p.index {
		p.index[i] = -1
	}
	p.h = &cacheHeap{owner: p}

	for fid, ser := range training.Series {
		total := ser.Total()
		if total == 0 {
			continue
		}
		p.freq[fid] = total
		p.prio[fid] = float64(total)
		p.set.add(trace.FuncID(fid))
		heap.Push(p.h, fid)
	}
	p.enforce()
}

// Tick implements sim.Policy: bump frequencies, recompute priorities
// against the current clock, admit newcomers, then evict down to capacity.
func (p *FaaSCache) Tick(t int, invs []trace.FuncCount) {
	for _, fc := range invs {
		f := int(fc.Func)
		p.freq[f]++
		p.prio[f] = p.clock + float64(p.freq[f])
		if p.index[f] >= 0 {
			heap.Fix(p.h, p.index[f])
		} else {
			p.set.add(fc.Func)
			heap.Push(p.h, f)
		}
	}
	p.enforce()
}

// enforce evicts lowest-(priority, FuncID) functions until the cache fits,
// ratcheting the GDSF clock to each evicted priority so future insertions
// outrank long-idle residents.
func (p *FaaSCache) enforce() {
	for p.set.count > p.capacity {
		victim := heap.Pop(p.h).(int)
		p.set.remove(trace.FuncID(victim))
		if p.prio[victim] > p.clock {
			p.clock = p.prio[victim]
		}
	}
}

// NextWake implements sim.IdleSkipper. FaaSCache has no timers: state only
// changes on invocations (an empty Tick cannot evict, because Train and Tick
// both leave the pool at or under capacity), so an invocation-free span never
// needs a wake-up.
func (p *FaaSCache) NextWake(after, limit int) (int, bool) { return -1, true }

// Loaded implements sim.Policy.
func (p *FaaSCache) Loaded(f trace.FuncID) bool { return p.set.has(f) }

// LoadedCount implements sim.Policy.
func (p *FaaSCache) LoadedCount() int { return p.set.count }

// cacheHeap is a min-heap over loaded functions ordered by (priority,
// FuncID).
type cacheHeap struct {
	owner *FaaSCache
	items []int
}

func (h *cacheHeap) Len() int { return len(h.items) }

func (h *cacheHeap) Less(i, j int) bool {
	fi, fj := h.items[i], h.items[j]
	if h.owner.prio[fi] != h.owner.prio[fj] {
		return h.owner.prio[fi] < h.owner.prio[fj]
	}
	return fi < fj
}

func (h *cacheHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.owner.index[h.items[i]] = i
	h.owner.index[h.items[j]] = j
}

func (h *cacheHeap) Push(x any) {
	f := x.(int)
	h.owner.index[f] = len(h.items)
	h.items = append(h.items, f)
}

func (h *cacheHeap) Pop() any {
	last := len(h.items) - 1
	f := h.items[last]
	h.items = h.items[:last]
	h.owner.index[f] = -1
	return f
}

// TakeLoadDeltas implements sim.LoadDeltaTracker.
func (p *FaaSCache) TakeLoadDeltas() ([]trace.FuncID, bool) { return p.set.takeDeltas() }
