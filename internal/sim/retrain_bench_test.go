package sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BenchmarkRetrainBoundary times one retrain boundary as the batch engine
// runs it, cycling through the boundaries of a generated 600-function,
// 6/4-day workload's simulation window every 720 slots. Each window
// straddles the training trace and the simulation prefix, as every boundary
// of the benchmark's drift workload does. "window" is the build alone
// through the run's one WindowBuilder; "retrain" adds a trained core.SPES
// re-categorizing over it. Each first passes every boundary once, untimed,
// so B/op counts no window storage and no categorization scratch: only
// what a warm boundary allocates.
func BenchmarkRetrainBoundary(b *testing.B) {
	full, err := trace.Generate(trace.DefaultGeneratorConfig(600, 6, 1))
	if err != nil {
		b.Fatal(err)
	}
	training, simTr := full.Split(4 * 1440)
	const every = 720
	boundaries := (simTr.Slots - 1) / every
	at := func(i int) int { return every * (1 + i%boundaries) }

	b.Run("window", func(b *testing.B) {
		var wb sim.WindowBuilder
		for i := 0; i < boundaries; i++ {
			wb.Build(training, simTr, at(i), training.Slots)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wb.Build(training, simTr, at(i), training.Slots)
		}
	})
	b.Run("retrain", func(b *testing.B) {
		p := core.New(core.DefaultConfig())
		p.Train(training)
		var wb sim.WindowBuilder
		for i := 0; i < boundaries; i++ {
			p.Retrain(at(i), wb.Build(training, simTr, at(i), training.Slots))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Retrain(at(i), wb.Build(training, simTr, at(i), training.Slots))
		}
	})
}

// BenchmarkRetrainRun times a whole retraining run over the same workload:
// sim.Run of a fresh core.SPES with RetrainEvery 720, Train included: the
// Ticks, the builds that BenchmarkRetrainBoundary's "window" times in
// isolation and the retrains.
func BenchmarkRetrainRun(b *testing.B) {
	full, err := trace.Generate(trace.DefaultGeneratorConfig(600, 6, 1))
	if err != nil {
		b.Fatal(err)
	}
	training, simTr := full.Split(4 * 1440)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(core.New(core.DefaultConfig()), training, simTr, sim.Options{RetrainEvery: 720}); err != nil {
			b.Fatal(err)
		}
	}
}
