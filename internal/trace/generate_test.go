package trace

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
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

// TestFanOut pins fanOut's contract at several widths: every item runs
// exactly once, a failing item's error comes back to the caller, and a
// panic in any worker, helper goroutines included, is raised again on the
// caller's goroutine rather than killing the process.
func TestFanOut(t *testing.T) {
	const items = 64
	errItem := errors.New("item failed")
	for _, workers := range []int{1, 2, 8} {
		var runs [items]atomic.Int32
		if err := fanOut(workers, items, func(i int) error {
			runs[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		for i := range runs {
			if n := runs[i].Load(); n != 1 {
				t.Fatalf("workers %d: item %d ran %d times", workers, i, n)
			}
		}

		err := fanOut(workers, items, func(i int) error {
			if i == 5 {
				return errItem
			}
			return nil
		})
		if !errors.Is(err, errItem) {
			t.Fatalf("workers %d: error = %v, want the failing item's", workers, err)
		}

		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers %d: recovered %v, want the worker's panic", workers, r)
				}
			}()
			// Every item panics, so whichever goroutines draw one — the
			// helpers as well as the caller — panic.
			fanOut(workers, items, func(int) error { panic("boom") })
			t.Fatalf("workers %d: fanOut returned past a panicking item", workers)
		}()
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
