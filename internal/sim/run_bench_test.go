package sim_test

import (
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// BenchmarkRunUnsharded times the unsharded engine's loop, the Driver
// stepping one chunk of slots while the next is transposed beside it, over
// two of the batch workloads' shapes: "faascache-capacity" is FaaSCache,
// its capacity a tenth of the population, over the capacity workload's
// 6 000 sparse functions; "spes-dense" is SPES over the paper's 2 000
// functions. Both simulate a 2-day window. Each iteration trains a fresh
// policy outside the timer and runs that instance with Shards 1, so it
// times the single-population run alone.
func BenchmarkRunUnsharded(b *testing.B) {
	cases := []struct {
		name     string
		settings experiments.Settings
		policy   func(n int) sim.Policy
	}{
		{"faascache-capacity", experiments.SparseSettings(6000, 1),
			func(n int) sim.Policy { return baselines.NewFaaSCache(n / 10) }},
		{"spes-dense", experiments.DefaultSettings(),
			func(int) sim.Policy { return core.New(core.DefaultConfig()) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			_, train, simTr, err := experiments.BuildWorkload(c.settings)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := c.policy(simTr.NumFunctions())
				p.Train(train)
				b.StartTimer()
				if _, err := sim.Run(p, nil, simTr, sim.Options{Shards: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
