package trace

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// fanTokens caps the helper goroutines alive across ALL concurrent FanOut
// calls at GOMAXPROCS: sharded simulations train one policy per shard
// concurrently and each training categorizes in parallel, so without one
// process-wide budget the helper count would multiply to shards × cores.
var fanTokens = make(chan struct{}, runtime.GOMAXPROCS(0))

// fan is one FanOut call's state. Calls take it from fanFree and give it
// back, so a call in a hot loop (Overlap runs one per round) allocates
// nothing once a fan is free.
type fan struct {
	fn             func(w, i int) error
	workers, items int
	next           atomic.Int64 // the next item to hand out
	helpers        atomic.Int64 // helpers started, each on a token
	joined         atomic.Int64 // helpers running: the source of their w
	failed         atomic.Bool
	wg             sync.WaitGroup
	mu             sync.Mutex
	errAt          int
	err            error
	panicVal       any
	// help is f.helper, bound once per fan, so the go statement that
	// starts a helper allocates no closure.
	help func()
}

// fanFree holds the fans of returned calls. Unlike a sync.Pool it is not
// emptied by a collection, so a warm process's calls never allocate. It
// holds at most as many fans as calls were ever in flight at once. Its
// capacity bounds what an idle process keeps, not the calls: past it a
// returned fan is dropped and a later call allocates one.
var fanFree = make(chan *fan, 64)

// FanOut runs fn(w, i) for every item i in [0, items) on up to workers
// workers, handing items out through one atomic counter. The caller is
// worker 0 and needs no token, so progress never waits on the budget; the
// helpers w in [1, workers) run on tokens drawn from the process-wide
// GOMAXPROCS budget without blocking. The call starts as many helpers as
// it finds tokens for, and every worker tries again before each item it
// takes, so a call started while the budget was spent picks up the tokens
// other calls release while items remain: no core idles while an item
// waits. w stays that goroutine's for the whole call, so fn may index
// per-worker scratch by it. Scheduling is nondeterministic: fn(w, i) must
// write only state item i owns. FanOut returns the lowest failing item's
// error (no item starts after a failure, and every lower item was already
// handed out), and a panic in fn is raised again on the caller once every
// worker has stopped. It allocates nothing per item, and nothing per call
// once a returned call's state is free to reuse (else the state and its
// bound helper); fn escapes, so a caller in a loop should build it once.
func FanOut(workers, items int, fn func(w, i int) error) error {
	var f *fan
	select {
	case f = <-fanFree:
	default:
		f = new(fan)
		f.help = f.helper
	}
	f.fn, f.workers, f.items, f.errAt = fn, min(workers, items), items, items
	f.work(0)
	f.wg.Wait()
	err, panicVal := f.err, f.panicVal
	f.fn, f.err, f.panicVal = nil, nil, nil
	f.next.Store(0)
	f.helpers.Store(0)
	f.joined.Store(0)
	f.failed.Store(false)
	select {
	case fanFree <- f:
	default:
	}
	if panicVal != nil {
		panic(panicVal)
	}
	return err
}

// grow starts helpers while the call is short of its width, items remain
// and the budget has tokens. A worker that calls it is itself live (the
// caller, or a helper counted in wg), so its wg.Add never races wg.Wait at
// zero.
func (f *fan) grow() {
	for {
		h := f.helpers.Load()
		if int(h) >= f.workers-1 || int(f.next.Load()) >= f.items || f.failed.Load() {
			return
		}
		select {
		case fanTokens <- struct{}{}:
		default:
			return
		}
		if !f.helpers.CompareAndSwap(h, h+1) {
			<-fanTokens // another worker took helper h+1; look again
			continue
		}
		f.wg.Add(1)
		go f.help()
	}
}

// helper is one helper goroutine: it runs as worker 1, 2, ... in the order
// the helpers start, and gives its token back when it runs out of items.
func (f *fan) helper() {
	defer f.wg.Done()
	defer func() { <-fanTokens }()
	f.work(int(f.joined.Add(1)))
}

// work takes items until none remain or one has failed.
func (f *fan) work(w int) {
	defer func() {
		if r := recover(); r != nil {
			f.mu.Lock()
			if f.panicVal == nil {
				f.panicVal = r
			}
			f.mu.Unlock()
			f.failed.Store(true)
		}
	}()
	for !f.failed.Load() {
		f.grow()
		i := int(f.next.Add(1) - 1)
		if i >= f.items {
			return
		}
		if e := f.fn(w, i); e != nil {
			f.mu.Lock()
			if i < f.errAt {
				f.errAt, f.err = i, e
			}
			f.mu.Unlock()
			f.failed.Store(true)
		}
	}
}

// Overlap is the one two-stage pipeline (DESIGN.md "Concurrency budget").
// The caller has produced buffer 0. Each round consumes buffer k while
// produce(k^1) readies the other, as one FanOut of two items, and the round
// whose produce reports nothing left is the last. A stage touches only its
// own buffer. consumeFirst makes consume item 0, which the caller takes
// first while a helper starts some 70–90 µs later on a 2-core VM, so it is
// set when consume is the longer stage. At width 1, at GOMAXPROCS 1 and
// without a token the stages run one after the other on the caller. Overlap
// returns the first consume error, which ends the pipeline; a panic in a
// stage is raised again on the caller. A round allocates nothing.
func Overlap(width int, consumeFirst bool, produce func(k int) bool, consume func(k int) error) error {
	if runtime.GOMAXPROCS(0) == 1 {
		width = 1
	}
	p := &pipeline{produce: produce, consume: consume}
	if consumeFirst {
		p.producer = 1
	}
	round := p.item // bound once: a method value per round would allocate
	for {
		if err := FanOut(width, 2, round); err != nil {
			return err
		}
		if !p.more {
			return nil
		}
		p.k ^= 1
	}
}

// pipeline is one Overlap call's state.
type pipeline struct {
	produce  func(k int) bool
	consume  func(k int) error
	k        int  // the buffer the round consumes
	producer int  // the item that produces
	more     bool // whether the round's produce readied a buffer
}

// item is one round's item i: the producer readies buffer k^1, the other
// item consumes buffer k.
func (p *pipeline) item(_, i int) error {
	if i == p.producer {
		p.more = p.produce(p.k ^ 1)
		return nil
	}
	return p.consume(p.k)
}
