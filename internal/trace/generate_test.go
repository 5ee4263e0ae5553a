package trace

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGenerateIsWidthIndependent holds Generate's concurrent synthesis to
// the serial one, GenerateShard(cfg, 0, 1), over the stationary workload and
// the four library scenarios, two seeds each, at GOMAXPROCS 1, 2 and 8: the
// same IDs, names, metadata and series whatever the machine's width. It
// runs under -short too, over a smaller population, so the race detector
// sees the fan-out.
func TestGenerateIsWidthIndependent(t *testing.T) {
	functions, days := 300, 4
	if testing.Short() {
		functions, days = 100, 2
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range ScenarioNames() {
		for _, seed := range []int64{1, 2} {
			cfg := DefaultGeneratorConfig(functions, days, seed)
			sc, err := NamedScenario(name, (days-1)*1440, days*1440)
			if err != nil {
				t.Fatal(err)
			}
			sc.Seed = seed
			cfg.Scenario = sc.Normalize()
			serial, err := GenerateShard(cfg, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				got, err := Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, serial.Trace) {
					t.Fatalf("%s seed %d: Generate at GOMAXPROCS %d differs from the serial trace", name, seed, procs)
				}
			}
		}
	}
}

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
	helped := make(chan struct{})
	var once sync.Once
	err := FanOut(2, 3, func(w, i int) error {
		switch {
		case w > 0:
			once.Do(func() { close(helped) })
		case i == 0:
			for ; held > 0; held-- {
				<-fanTokens
			}
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

// BenchmarkGenerate times materializing the paper's workload shape — 2 000
// functions over 14 days — as every materialized set-up does; run it at
// -cpu 1,2 to see the fan-out's width.
func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultGeneratorConfig(2000, 14, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
