package baselines

import (
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
	heap  []int // loaded functions, a binary min-heap under less
	index []int // heap position per function, -1 when not loaded
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
	p.heap = nil

	for fid, ser := range training.Series {
		total := ser.Total()
		if total == 0 {
			continue
		}
		p.freq[fid] = total
		p.prio[fid] = float64(total)
		p.set.add(trace.FuncID(fid))
		p.push(fid)
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
		if i := p.index[f]; i >= 0 {
			if !p.down(i, len(p.heap)) {
				p.up(i)
			}
		} else {
			p.set.add(fc.Func)
			p.push(f)
		}
	}
	p.enforce()
}

// enforce evicts lowest-(priority, FuncID) functions until the cache fits,
// ratcheting the GDSF clock to each evicted priority so future insertions
// outrank long-idle residents.
func (p *FaaSCache) enforce() {
	for p.set.count > p.capacity {
		victim := p.pop()
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

// The eviction heap is kept inline on []int rather than through
// container/heap, whose Push(any)/Pop() any box a FuncID on every admission
// and eviction. The sift steps are container/heap's, so the layout — and
// with it every eviction — is the same.

// less orders heap positions i and j by (priority, FuncID).
func (p *FaaSCache) less(i, j int) bool {
	fi, fj := p.heap[i], p.heap[j]
	if p.prio[fi] != p.prio[fj] {
		return p.prio[fi] < p.prio[fj]
	}
	return fi < fj
}

// swap exchanges heap positions i and j, keeping index in step.
func (p *FaaSCache) swap(i, j int) {
	p.heap[i], p.heap[j] = p.heap[j], p.heap[i]
	p.index[p.heap[i]] = i
	p.index[p.heap[j]] = j
}

// up sifts position j towards the root while it outranks its parent.
func (p *FaaSCache) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !p.less(j, i) {
			break
		}
		p.swap(i, j)
		j = i
	}
}

// down sifts position i0 towards the leaves of the first n positions while
// a child outranks it, reporting whether it moved.
func (p *FaaSCache) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && p.less(j2, j1) {
			j = j2 // right child
		}
		if !p.less(j, i) {
			break
		}
		p.swap(i, j)
		i = j
	}
	return i > i0
}

// push admits f to the heap.
func (p *FaaSCache) push(f int) {
	p.index[f] = len(p.heap)
	p.heap = append(p.heap, f)
	p.up(len(p.heap) - 1)
}

// pop removes and returns the lowest-(priority, FuncID) function.
func (p *FaaSCache) pop() int {
	last := len(p.heap) - 1
	p.swap(0, last)
	p.down(0, last)
	f := p.heap[last]
	p.heap = p.heap[:last]
	p.index[f] = -1
	return f
}

// TakeLoadDeltas implements sim.LoadDeltaTracker.
func (p *FaaSCache) TakeLoadDeltas() ([]trace.FuncID, bool) { return p.set.takeDeltas() }
