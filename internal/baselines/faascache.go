package baselines

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/sim"
	"repro/internal/trace"
)

// FaaSCache implements the Greedy-Dual-Size-Frequency caching policy of
// Fuerst & Sharma (ASPLOS'21): keeping a function warm is treated as
// keeping an object cached. Every function stays loaded until memory
// pressure forces an eviction of the lowest-priority instance, with
// priority = clock + frequency * cost / size. Under the paper's simulation
// principles cost and size are uniform, so priority reduces to
// clock + frequency; the clock ratchets up to each evicted priority,
// ageing cold entries out. (priority, FuncID) is a strict total order, so
// it fixes the set a Tick evicts and the clock that set leaves behind, not
// the order victims leave in.
type FaaSCache struct {
	sim.LoadedSet

	capacity int

	clock float64
	freq  []int64
	prio  []float64
	pool  []trace.FuncID // the loaded functions, in no particular order
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
	p.Reset(n)
	p.clock = 0
	p.freq = make([]int64, n)
	p.prio = make([]float64, n)
	p.pool = p.pool[:0]

	for fid, ser := range training.Series {
		total := ser.Total()
		if total == 0 {
			continue
		}
		p.freq[fid] = total
		p.prio[fid] = float64(total)
		p.Load(trace.FuncID(fid))
		p.pool = append(p.pool, trace.FuncID(fid))
	}
	p.enforce()
}

// Tick implements sim.Policy: bump frequencies, recompute priorities
// against the current clock, admit newcomers, then evict down to capacity.
func (p *FaaSCache) Tick(t int, invs []trace.FuncCount) {
	for _, fc := range invs {
		f := fc.Func
		p.freq[f]++
		p.prio[f] = p.clock + float64(p.freq[f])
		if !p.Loaded(f) {
			p.Load(f)
			p.pool = append(p.pool, f)
		}
	}
	p.enforce()
}

// enforce evicts the lowest-(priority, FuncID) functions until the cache
// fits, and ratchets the GDSF clock to the largest evicted priority, so
// future insertions outrank long-idle residents. Priorities do not move
// while it evicts, so one selection over the unordered pool finds the set
// that evicting one minimum at a time would, and the same clock.
func (p *FaaSCache) enforce() {
	k := p.LoadedCount() - p.capacity
	if k <= 0 {
		return
	}
	keep := len(p.pool) - k
	selectLowest(p.pool, k, p.prio)
	for _, f := range p.pool[keep:] {
		p.Unload(f)
		if p.prio[f] > p.clock {
			p.clock = p.prio[f]
		}
	}
	p.pool = p.pool[:keep]
}

// NextWake implements sim.IdleSkipper. FaaSCache has no timers: state only
// changes on invocations (an empty Tick cannot evict, because Train and Tick
// both leave the pool at or under capacity), so an invocation-free span never
// needs a wake-up.
func (p *FaaSCache) NextWake(after, limit int) (int, bool) { return -1, true }

// higher reports whether f comes after g in (prio, FuncID) order.
func higher(prio []float64, f, g trace.FuncID) bool {
	return prio[f] > prio[g] || prio[f] == prio[g] && f > g
}

// selectLowest reorders pool, distinct functions, so that its k lowest in
// (prio, FuncID) order occupy its last k positions, in no particular order.
// It is a quickselect on a median-of-three pivot, deterministic and drawing
// no random numbers: each round partitions the range that holds the
// boundary in one comparison per element, a few times len(pool) in all on
// typical orders. After 2·bits.Len(len(pool)) rounds the range left is
// sorted outright, which bounds the worst case at O(n log n) comparisons on
// any input order. It returns an upper bound on the comparisons it made.
func selectLowest(pool []trace.FuncID, k int, prio []float64) (compares int) {
	// In descending order the boundary sits at m: every function in
	// pool[:m] is to come before every function in pool[m:].
	m := len(pool) - k
	lo, hi := 0, len(pool)
	for rounds := 2 * bits.Len(uint(len(pool))); m > lo && m < hi; rounds-- {
		if rounds == 0 {
			// The pool's functions are distinct, so none compare equal.
			slices.SortFunc(pool[lo:hi], func(f, g trace.FuncID) int {
				compares++
				if higher(prio, f, g) {
					return -1
				}
				return 1
			})
			return compares
		}
		compares += hi - lo + 3
		switch p := lo + partitionDescending(pool[lo:hi], prio); {
		case m < p:
			hi = p
		case m > p+1:
			lo = p + 1
		default:
			return compares
		}
	}
	return compares
}

// partitionDescending partitions s (at least two functions) around a pivot
// and returns the pivot's final index: everything before it comes after
// the pivot in (prio, FuncID) order, nothing after it does. The pivot is
// the median of the quartiles and the middle, where ascending, descending
// and organ-pipe orders all split near the middle.
func partitionDescending(s []trace.FuncID, prio []float64) int {
	last := len(s) - 1
	a, pivot, c := len(s)/4, len(s)/2, last-len(s)/4
	if higher(prio, s[pivot], s[a]) != higher(prio, s[c], s[a]) {
		pivot = a
	} else if higher(prio, s[a], s[c]) != higher(prio, s[pivot], s[c]) {
		pivot = c
	}
	s[pivot], s[last] = s[last], s[pivot]
	i := 0
	for j, f := range s[:last] {
		if higher(prio, f, s[last]) {
			s[i], s[j] = f, s[i]
			i++
		}
	}
	s[i], s[last] = s[last], s[i]
	return i
}
