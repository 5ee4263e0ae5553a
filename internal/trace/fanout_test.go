package trace

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFanOut pins FanOut's contract at several widths: every item runs
// exactly once, on a worker index in [0, workers) that no two goroutines
// hold at once (so per-worker scratch indexed by it is safe); the lowest
// failing item's error comes back to the caller; nested calls never run
// more helper goroutines than the process-wide budget; and a panic in any
// worker, helper goroutines included, is raised again on the caller's
// goroutine rather than killing the process.
func TestFanOut(t *testing.T) {
	const items = 64
	errLow, errHigh := errors.New("item 5 failed"), errors.New("item 40 failed")
	for _, workers := range []int{1, 2, 8} {
		var runs [items]atomic.Int32
		busy := make([]atomic.Bool, workers)
		if err := FanOut(workers, items, func(w, i int) error {
			if w < 0 || w >= workers {
				t.Errorf("workers %d: item %d ran on worker %d", workers, i, w)
				return nil
			}
			if !busy[w].CompareAndSwap(false, true) {
				t.Errorf("workers %d: worker %d runs two items at once", workers, w)
				return nil
			}
			runs[i].Add(1)
			runtime.Gosched()
			busy[w].Store(false)
			return nil
		}); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		for i := range runs {
			if n := runs[i].Load(); n != 1 {
				t.Fatalf("workers %d: item %d ran %d times", workers, i, n)
			}
		}

		// Item 40 usually fails first (item 5 sleeps), but item 5 was
		// handed out before it, so item 5's error is the one returned.
		err := FanOut(workers, items, func(_, i int) error {
			switch i {
			case 5:
				time.Sleep(time.Millisecond)
				return errLow
			case 40:
				return errHigh
			}
			return nil
		})
		if err != errLow {
			t.Fatalf("workers %d: error = %v, want the lowest failing item's", workers, err)
		}

		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers %d: recovered %v, want the worker's panic", workers, r)
				}
			}()
			// Every item panics, so whichever goroutines draw one — the
			// helpers as well as the caller — panic.
			FanOut(workers, items, func(int, int) error { panic("boom") })
			t.Fatalf("workers %d: FanOut returned past a panicking item", workers)
		}()
	}

	// Nested: every outer item fans out again, each call asking for more
	// workers than the budget holds. A fn running on worker w > 0 runs on a
	// helper goroutine, so the count of those in flight is the count of live
	// helpers, which the budget caps.
	budget := cap(fanTokens)
	var live, peak atomic.Int32
	helper := func(w int) func() {
		if w == 0 {
			return func() {}
		}
		n := live.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		return func() { live.Add(-1) }
	}
	err := FanOut(budget+4, 2*budget+4, func(w, _ int) error {
		defer helper(w)()
		return FanOut(budget+4, 16, func(w, _ int) error {
			defer helper(w)()
			time.Sleep(50 * time.Microsecond)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); int(p) > budget {
		t.Fatalf("nested fan-out ran %d helpers at once, budget %d", p, budget)
	}
}

// A call started while other calls hold the whole budget runs on its
// caller alone, and takes on helpers as soon as tokens come back while it
// still has items: item 1 waits for a helper to run an item, which only a
// helper started after item 0 released the budget can do.
func TestFanOutPicksUpReleasedTokens(t *testing.T) {
	release := holdEveryToken()
	helped := make(chan struct{})
	var once sync.Once
	err := FanOut(2, 3, func(w, i int) error {
		switch {
		case w > 0:
			once.Do(func() { close(helped) })
		case i == 0:
			release()
		case i == 1:
			select {
			case <-helped:
			case <-time.After(5 * time.Second):
				t.Error("no helper joined after the budget was released")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFanOutAllocations holds FanOut to at most two heap objects per call
// — its state and the helper function bound to it — when no returned
// call's state is free, and to none once one is: the batch engine runs a
// call per chunk of slots, so a per-call allocation would be a per-chunk
// one. Width 2 is measured with a helper running item 1 (item 0 waits for
// it), after enough calls that the runtime reuses exited helpers'
// goroutines rather than allocating new ones.
func TestFanOutAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, width := range []int{1, 2} {
		var ran1 atomic.Bool
		helped := 0
		fn := func(w, i int) error {
			if i == 1 {
				if w > 0 {
					helped++
				}
				ran1.Store(true)
				return nil
			}
			for deadline := time.Now().Add(time.Second); width > 1 && !ran1.Load() && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			return nil
		}
		call := func() {
			ran1.Store(false)
			if err := FanOut(width, 2, fn); err != nil {
				t.Fatal(err)
			}
		}
		for range 256 {
			call()
		}
		for len(fanFree) > 0 {
			<-fanFree
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		call()
		runtime.ReadMemStats(&after)
		if cold := after.Mallocs - before.Mallocs; cold > 2 {
			t.Errorf("width %d: a call with no free state allocated %d heap objects, want at most 2", width, cold)
		}
		helped = 0
		warm := testing.AllocsPerRun(200, call)
		t.Logf("width %d: %.2f heap objects per warm call; a helper ran item 1 in %d of 201 calls", width, warm, helped)
		if warm != 0 {
			t.Errorf("width %d: a warm call allocated %.2f heap objects, want none", width, warm)
		}
		if width > 1 && helped == 0 {
			t.Errorf("width %d: no helper ran an item, so the measurement missed the helper path", width)
		}
	}
}

// holdEveryToken takes every token of the process-wide budget and returns
// a function that gives them back, so a FanOut started in between finds
// none and runs its items on the caller.
func holdEveryToken() (release func()) {
	held := 0
	for held < cap(fanTokens) {
		select {
		case fanTokens <- struct{}{}:
			held++
			continue
		default:
		}
		break
	}
	return func() {
		for ; held > 0; held-- {
			<-fanTokens
		}
	}
}

// errStop is the consume error overlapProbe plants.
var errStop = errors.New("consume failed")

// overlapProbe is a pipeline of n items through Overlap's two buffers, of
// which the caller produced buffer 0 (item 0): produce writes the next item
// into its buffer, consume appends its buffer's item to got. A stage marks
// its buffer busy while it runs, so one that meets the other stage on its
// buffer fails the test; the stages record whether two ran at once and
// the order they started in. Consume fails with errStop on its failAt-th
// call and a stage named by panicIn panics on its second call.
type overlapProbe struct {
	t                  *testing.T
	n, next            int
	buf                [2]int
	busy               [2]atomic.Bool
	running            atomic.Int32
	together           atomic.Bool
	mu                 sync.Mutex
	order              []string
	got                []int
	produced, consumed int
	failAt             int
	panicIn            string
}

func newOverlapProbe(t *testing.T, n int) *overlapProbe {
	return &overlapProbe{t: t, n: n, next: 1}
}

func (p *overlapProbe) enter(stage string, k int) {
	if !p.busy[k].CompareAndSwap(false, true) {
		p.t.Errorf("%s(%d) ran while the other stage held buffer %d", stage, k, k)
	}
	if p.running.Add(1) > 1 {
		p.together.Store(true)
	}
	p.mu.Lock()
	p.order = append(p.order, stage)
	p.mu.Unlock()
	for range 50 { // give the other stage time to run alongside
		runtime.Gosched()
	}
}

func (p *overlapProbe) leave(k int) {
	p.running.Add(-1)
	p.busy[k].Store(false)
}

func (p *overlapProbe) produce(k int) bool {
	p.enter("produce", k)
	defer p.leave(k)
	if p.produced++; p.panicIn == "produce" && p.produced == 2 {
		panic("produce: boom")
	}
	if p.next == p.n {
		return false
	}
	p.buf[k] = p.next
	p.next++
	return true
}

func (p *overlapProbe) consume(k int) error {
	p.enter("consume", k)
	defer p.leave(k)
	if p.consumed++; p.panicIn == "consume" && p.consumed == 2 {
		panic("consume: boom")
	}
	if p.consumed == p.failAt {
		return errStop
	}
	p.got = append(p.got, p.buf[k])
	return nil
}

// TestOverlap holds Overlap to its contract. Every item is consumed once,
// in order, and the round whose produce reports nothing left is the last;
// produce(k) never runs beside consume(k). At width 1, at GOMAXPROCS 1 and
// with every token held the stages run one at a time, the one consumeFirst
// names first in every round. A consume error ends the pipeline and comes
// back, and a panic in either stage is raised again on the caller. A warm
// round allocates nothing.
func TestOverlap(t *testing.T) {
	modes := []struct {
		name         string
		procs, width int
		held, serial bool
	}{
		{"width-2", 2, 2, false, false},
		{"width-1", 2, 1, false, true},
		{"gomaxprocs-1", 1, 2, false, true},
		{"every-token-held", 2, 2, true, true},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, m := range modes {
		for _, consumeFirst := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/consume-first-%t", m.name, consumeFirst), func(t *testing.T) {
				runtime.GOMAXPROCS(m.procs)
				if m.held {
					defer holdEveryToken()()
				}
				overlapped := 0
				for _, n := range []int{1, 2, 3, 40} {
					p := newOverlapProbe(t, n)
					if err := Overlap(m.width, consumeFirst, p.produce, p.consume); err != nil {
						t.Fatalf("%d items: %v", n, err)
					}
					if len(p.got) != n || p.produced != n {
						t.Fatalf("%d items: consumed %v in %d produce calls, want every item once in %d", n, p.got, p.produced, n)
					}
					for i, v := range p.got {
						if v != i {
							t.Fatalf("%d items: consumed %v, want them in order", n, p.got)
						}
					}
					if p.together.Load() {
						overlapped++
					}
					if !m.serial {
						continue
					}
					if p.together.Load() {
						t.Fatalf("%d items: the stages ran at once", n)
					}
					first, second := "produce", "consume"
					if consumeFirst {
						first, second = second, first
					}
					for i, stage := range p.order {
						if want := []string{first, second}[i%2]; stage != want {
							t.Fatalf("%d items: stages ran in the order %v, want %s first in every round", n, p.order, first)
						}
					}
				}
				if !m.serial {
					t.Logf("the stages ran at once in %d of 4 pipelines", overlapped)
				}

				p := newOverlapProbe(t, 40)
				p.failAt = 3
				if err := Overlap(m.width, consumeFirst, p.produce, p.consume); err != errStop {
					t.Fatalf("a failing consume: error %v, want %v", err, errStop)
				}
				if p.consumed != 3 || p.produced > 3 || len(p.got) != 2 {
					t.Fatalf("a failing third consume: %d consumes and %d produce calls ran, %v consumed; want the pipeline to stop in that round",
						p.consumed, p.produced, p.got)
				}

				for _, stage := range []string{"produce", "consume"} {
					func() {
						want := stage + ": boom"
						defer func() {
							if r := recover(); r != want {
								t.Fatalf("recovered %v, want %q", r, want)
							}
						}()
						p := newOverlapProbe(t, 40)
						p.panicIn = stage
						Overlap(m.width, consumeFirst, p.produce, p.consume)
						t.Fatalf("Overlap returned past a panicking %s", stage)
					}()
				}
			})
		}
	}

	// testing.AllocsPerRun measures at GOMAXPROCS 1, where Overlap runs
	// serially, so the rounds are counted from MemStats at GOMAXPROCS 2. At
	// width 2 the consume, item 0, waits for the produce, so a helper runs
	// it whenever it can start one.
	t.Run("allocations", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector's instrumentation allocates")
		}
		runtime.GOMAXPROCS(2)
		for _, width := range []int{1, 2} {
			left, helped := 0, 0
			var produced atomic.Bool
			produce := func(int) bool {
				left--
				produced.Store(true)
				return left > 0
			}
			consume := func(int) error {
				for deadline := time.Now().Add(time.Second); width > 1 && !produced.Load() && time.Now().Before(deadline); {
					runtime.Gosched()
				}
				if produced.Swap(false) && width > 1 {
					helped++
				}
				return nil
			}
			objects := func(rounds int) uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range 100 {
					left = rounds
					if err := Overlap(width, true, produce, consume); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				return (after.Mallocs - before.Mallocs) / 100
			}
			objects(64) // warm: goroutines of exited helpers are reused
			helped = 0
			one, many := objects(1), objects(64)
			t.Logf("width %d: %d heap objects per 1-round call, %d per 64-round call; a helper ran %d of 6 500 produces",
				width, one, many, helped)
			if one > 2 || many > one {
				t.Errorf("width %d: %d heap objects for one round and %d for 64, want at most 2 per call and none per warm round",
					width, one, many)
			}
			if width > 1 && helped == 0 {
				t.Errorf("width %d: no helper ran a produce, so the measurement missed the helper path", width)
			}
		}
	})
}
