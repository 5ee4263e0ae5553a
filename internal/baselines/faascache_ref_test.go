package baselines

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// heapFaaSCache is the reference FaaSCache is held to: the GDSF cache as it
// ran before eviction by selection, an indexed binary min-heap under
// (priority, FuncID) that every invocation sifts and every eviction pops, one
// victim at a time, ratcheting the clock to each popped priority. Nothing
// here is reused by production.
type heapFaaSCache struct {
	sim.LoadedSet

	capacity int

	clock float64
	freq  []int64
	prio  []float64
	heap  []int // loaded functions, a binary min-heap under less
	index []int // heap position per function, -1 when not loaded
}

func newHeapFaaSCache(capacity int) *heapFaaSCache { return &heapFaaSCache{capacity: capacity} }

func (p *heapFaaSCache) Name() string  { return "FaaSCache" }
func (p *heapFaaSCache) Capacity() int { return p.capacity }

func (p *heapFaaSCache) NextWake(after, limit int) (int, bool) { return -1, true }

func (p *heapFaaSCache) Train(training *trace.Trace) {
	n := training.NumFunctions()
	p.Reset(n)
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
		p.Load(trace.FuncID(fid))
		p.push(fid)
	}
	p.enforce()
}

func (p *heapFaaSCache) Tick(t int, invs []trace.FuncCount) {
	for _, fc := range invs {
		f := int(fc.Func)
		p.freq[f]++
		p.prio[f] = p.clock + float64(p.freq[f])
		if i := p.index[f]; i >= 0 {
			if !p.down(i, len(p.heap)) {
				p.up(i)
			}
		} else {
			p.Load(fc.Func)
			p.push(f)
		}
	}
	p.enforce()
}

func (p *heapFaaSCache) enforce() {
	for p.LoadedCount() > p.capacity {
		victim := p.pop()
		p.Unload(trace.FuncID(victim))
		if p.prio[victim] > p.clock {
			p.clock = p.prio[victim]
		}
	}
}

// The sift steps are container/heap's on []int.

func (p *heapFaaSCache) less(i, j int) bool {
	fi, fj := p.heap[i], p.heap[j]
	if p.prio[fi] != p.prio[fj] {
		return p.prio[fi] < p.prio[fj]
	}
	return fi < fj
}

func (p *heapFaaSCache) swap(i, j int) {
	p.heap[i], p.heap[j] = p.heap[j], p.heap[i]
	p.index[p.heap[i]] = i
	p.index[p.heap[j]] = j
}

func (p *heapFaaSCache) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !p.less(j, i) {
			break
		}
		p.swap(i, j)
		j = i
	}
}

func (p *heapFaaSCache) down(i0, n int) bool {
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

func (p *heapFaaSCache) push(f int) {
	p.index[f] = len(p.heap)
	p.heap = append(p.heap, f)
	p.up(len(p.heap) - 1)
}

func (p *heapFaaSCache) pop() int {
	last := len(p.heap) - 1
	p.swap(0, last)
	p.down(0, last)
	f := p.heap[last]
	p.heap = p.heap[:last]
	p.index[f] = -1
	return f
}
