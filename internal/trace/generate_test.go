package trace

import (
	"reflect"
	"runtime"
	"testing"
)

// TestGenerateIsWidthIndependent holds Generate's concurrent synthesis to
// the serial one, the single shard of BuildGenLayout(cfg), over the
// stationary workload and
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
			l, err := BuildGenLayout(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, serial, err := l.Shard(0, 1, 0)
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
