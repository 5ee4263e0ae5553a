// Equivalence tests: each comparing test is one internal/eqv matrix, the
// harness cmd/eqvcheck runs at larger sizes; the rest pin contracts around
// the engines (error types, retraining's effect).
package main

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/eqv"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

func eqvSettings(seed int64) experiments.Settings {
	s := experiments.DefaultSettings()
	s.Functions, s.Days, s.TrainDays, s.Seed = 300, 6, 4, seed
	return s
}

// small is eqvSettings over seeds, under a scenario ("": none) per seed.
func small(scenario string, seeds ...int64) eqv.Workload {
	s := eqvSettings(0)
	s.Scenario.Name = scenario
	return eqv.Workload{Settings: s, Seeds: seeds}
}

// buildWorkload is eqv.Materialize's pair for s; callers must not modify it.
func buildWorkload(t testing.TB, s experiments.Settings) (train, simTr *trace.Trace) {
	t.Helper()
	w, err := eqv.Materialize(s)
	if err != nil {
		t.Fatal(err)
	}
	return w.Train, w.Sim
}

// check runs one row over w; checkMatrix fails t on an error or on any
// mismatch, reported under its row label.
func check(t *testing.T, w eqv.Workload, ps []eqv.Policy, ref eqv.Engine, engines ...eqv.Engine) {
	t.Helper()
	checkMatrix(t, eqv.Matrix{Workload: w, Rows: []eqv.Row{{Policies: ps, Ref: ref, Engines: engines}}})
}

func assertSameResult(t *testing.T, label string, want, got *sim.Result) {
	t.Helper()
	if d := want.Diff(got); d != "" {
		t.Errorf("%s: results differ:\n%s", label, d)
	}
}

func checkMatrix(t *testing.T, m eqv.Matrix) {
	t.Helper()
	rep, err := eqv.Check(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, mm := range rep.Mismatches {
		t.Error(mm)
	}
}

// TestSPESEventEngineEquivalence: SPES in every scheduling engine ×
// accounting mode, the default engine (GOMAXPROCS shards) included, against
// the dense, scan-accounted reference.
func TestSPESEventEngineEquivalence(t *testing.T) {
	check(t, small("", 1, 2, 3), []eqv.Policy{eqv.SPES()}, eqv.DenseByScan,
		eqv.Event, eqv.Default, eqv.Scan, eqv.Dense, eqv.Sharded(2), eqv.Sharded(5),
		eqv.Streamed(1), eqv.Streamed(2), eqv.Streamed(5))
}

// theta is SPES with the given pre-warm threshold: one sweep point.
func theta(th int) eqv.Policy {
	cfg := core.DefaultConfig()
	cfg.Classify.ThetaPrewarm = th
	return eqv.Policy{Name: fmt.Sprintf("SPES theta=%d", th), New: func() sim.Policy { return core.New(cfg) }}
}

// TestStreamedSweepMatchesMaterialized: each point of a theta sweep
// streamed over a generator source matches its materialized run.
func TestStreamedSweepMatchesMaterialized(t *testing.T) {
	check(t, small("", 13), []eqv.Policy{theta(1), theta(2)}, eqv.Event, eqv.Streamed(4))
}

// ablated is SPES with one design of Figures 14 and 15 switched off.
func ablated(name string, off func(*core.Config)) eqv.Policy {
	cfg := core.DefaultConfig()
	off(&cfg)
	return eqv.Policy{Name: "SPES " + name, New: func() sim.Policy { return core.New(cfg) }}
}

// TestAblationShardedEquivalence: each ablation switch, run by the default
// engine, 4 shards wide alone and under one RunAll as the figure runners
// run it, against its unsharded run.
func TestAblationShardedEquivalence(t *testing.T) {
	t.Parallel()
	check(t, small("", 1, 2), []eqv.Policy{
		ablated("w/o Corr", func(c *core.Config) { c.DisableCorrelation = true }),
		ablated("w/o Online-Corr", func(c *core.Config) { c.DisableOnlineCorr = true }),
		ablated("w/o Forgetting", func(c *core.Config) { c.DisableForgetting = true }),
		ablated("w/o Adjusting", func(c *core.Config) { c.DisableAdjusting = true }),
	}, eqv.Event, eqv.Default, eqv.Sharded(4), eqv.RunAll(4))
}

// TestShardedBaselineEquivalence: every baseline under Options.Shards
// against its unsharded run (the capacity-coupled ones ignore Shards).
func TestShardedBaselineEquivalence(t *testing.T) {
	checkMatrix(t, eqv.Matrix{Workload: small("", 5), Rows: []eqv.Row{{Policies: append(eqv.Wheel(), eqv.Capacity(30)...),
		Ref: eqv.Event, Engines: []eqv.Engine{eqv.Sharded(2), eqv.Sharded(4)}, Unwasted: true}}})
}

// TestCapacityShardedEquivalence: FaaSCache and LCS over a third of the
// population (evictions constant, loaded functions also idle), scanned,
// sharded and over generator sources the run reassembles.
func TestCapacityShardedEquivalence(t *testing.T) {
	t.Parallel()
	for _, scenario := range []string{"steady", "drift", "flashcrowd"} {
		check(t, small(scenario, 1, 2, 3), eqv.Capacity(100), eqv.Event, eqv.Scan,
			eqv.Sharded(2), eqv.Sharded(5), eqv.Sharded(16), eqv.Streamed(2), eqv.Streamed(5), eqv.Streamed(16))
	}
}

// TestCapacityShardingContracts: an unshardable policy fails with
// ErrNotShardable, through RunAll too, whose other results stay usable.
func TestCapacityShardingContracts(t *testing.T) {
	train, simTr := buildWorkload(t, eqvSettings(3))
	_, err := sim.Run(eqv.ScanOnly(baselines.NewFixedKeepAlive(10)), train, simTr, sim.Options{Shards: 2})
	if !errors.Is(err, sim.ErrNotShardable) {
		t.Errorf("unshardable policy: got %v, want errors.Is ErrNotShardable", err)
	}
	results, err := sim.RunAll([]sim.Policy{eqv.ScanOnly(baselines.NewFixedKeepAlive(10)), baselines.NewFixedKeepAlive(10)},
		train, simTr, sim.Options{Shards: 2})
	if !errors.Is(err, sim.ErrNotShardable) {
		t.Errorf("RunAll: got %v, want errors.Is ErrNotShardable", err)
	}
	if results[0] != nil || results[1] == nil {
		t.Errorf("RunAll partial results: got [%v, %v], want [nil, result]", results[0], results[1])
	}
}

// TestShardedLargeNSparseEquivalence: 10k mostly-idle functions, the regime
// sharding exists for, guarding every engine's O(active) claim. Skipped
// under -short (the race CI job runs a small sharded eqvcheck instead).
func TestShardedLargeNSparseEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n equivalence skipped with -short")
	}
	t.Parallel()
	w := eqv.Workload{Settings: experiments.SparseSettings(10_000, 0), Seeds: []int64{1, 2, 3}}
	check(t, w, []eqv.Policy{eqv.SPES()}, eqv.DenseByScan,
		eqv.Event, eqv.Sharded(4), eqv.Streamed(4), eqv.Sharded(16), eqv.Streamed(16))
}

// TestShardedRunAllSharesBudget: sharded policies under one RunAll at
// GOMAXPROCS 2 still produce in-order, bit-correct results. It sets the
// process's GOMAXPROCS, so it must not run in parallel.
func TestShardedRunAllSharesBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	b := eqv.Wheel()
	checkMatrix(t, eqv.Matrix{Workload: small("", 9), Rows: []eqv.Row{{
		Policies: []eqv.Policy{eqv.SPES(), b[0], b[3]}, Ref: eqv.Event, Engines: []eqv.Engine{eqv.RunAll(3)},
	}}})
}

// TestBaselineDeltaAccountingEquivalence: every baseline's delta log drives
// the incremental accounting to the exact result of the scan.
func TestBaselineDeltaAccountingEquivalence(t *testing.T) {
	t.Parallel()
	checkMatrix(t, eqv.Matrix{Workload: small("", 1, 2, 3), Rows: []eqv.Row{{Policies: append(eqv.Wheel(), eqv.Capacity(30)...),
		Ref: eqv.Scan, Engines: []eqv.Engine{eqv.Event}, Unwasted: true}}})
}

// TestWheelBaselineEquivalence: each wheel-backed baseline's delta log and
// idle-span skipping, on its own engine and on the default one, against its
// scan-accounted run, and Fixed against its closed-form oracle. Wheel ≡
// per-slot map is internal/sched's model test.
func TestWheelBaselineEquivalence(t *testing.T) {
	t.Parallel()
	for _, scenario := range []string{"drift", "flashcrowd"} {
		check(t, small(scenario, 1, 2), eqv.Wheel(), eqv.Scan, eqv.Event, eqv.Default, eqv.Sharded(3), eqv.Streamed(2), eqv.Oracle)
	}
}

// TestTrackerlessPolicyEquivalence: a user's policy with and without a
// hand-written delta log, and a tracker-hiding wrapper, account alike.
func TestTrackerlessPolicyEquivalence(t *testing.T) {
	check(t, small("", 2), []eqv.Policy{eqv.AdaptiveTTL(), eqv.Fixed()}, eqv.Event, eqv.Scan, eqv.Oracle)
}

// TestRunAllParallelMatchesSequential pins RunAll's concurrent execution to
// the per-policy sequential results, in input order.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	b := eqv.Wheel()
	checkMatrix(t, eqv.Matrix{Workload: small("", 7), Rows: []eqv.Row{{Policies: []eqv.Policy{eqv.SPES(), b[0], b[3], eqv.Capacity(30)[1]},
		Ref: eqv.Event, Engines: []eqv.Engine{eqv.RunAll(0)}, Unwasted: true}}})
}

// TestScenarioRetrainEquivalence: drift, churn and online retraining must
// open no daylight between SPES's engines.
func TestScenarioRetrainEquivalence(t *testing.T) {
	t.Parallel()
	for _, scenario := range []string{"drift", "churn", "flashcrowd", "deploy-wave"} {
		for _, retrainEvery := range []int{0, 1440} {
			w := small(scenario, 1, 2)
			w.RetrainEvery = retrainEvery
			check(t, w, []eqv.Policy{eqv.SPES()}, eqv.DenseByScan, eqv.Event, eqv.Default, eqv.Dense, eqv.Sharded(3),
				eqv.Streamed(2))
		}
	}
}

func churn(t *testing.T) (train, simTr *trace.Trace) {
	s := eqvSettings(1)
	if err := s.ApplyScenario("churn"); err != nil {
		t.Fatal(err)
	}
	return buildWorkload(t, s)
}

// TestRetrainChangesOutcomeUnderChurn: retraining is not a no-op; under
// churn it demotes retired functions and picks up born ones.
func TestRetrainChangesOutcomeUnderChurn(t *testing.T) {
	train, simTr := churn(t)
	plain, err := sim.Run(core.New(core.DefaultConfig()), train, simTr, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	retrained, err := sim.Run(core.New(core.DefaultConfig()), train, simTr, sim.Options{RetrainEvery: 720})
	if err != nil {
		t.Fatal(err)
	}
	if plain.TotalColdStarts == retrained.TotalColdStarts && plain.TotalWMT == retrained.TotalWMT {
		t.Fatalf("retraining changed nothing under churn: cold=%d wmt=%d", plain.TotalColdStarts, plain.TotalWMT)
	}
}

// TestStoreMatchesMaterializedCSV: the committed sample ingested into a
// columnar store (cold) and reopened (warm, spes-sim -store's path) against
// the materialized CSV.
func TestStoreMatchesMaterializedCSV(t *testing.T) {
	s := experiments.DefaultSettings()
	s.TrainDays = 3
	for _, p := range []eqv.Policy{eqv.SPES(), eqv.Fixed()} {
		t.Run(p.Name, func(t *testing.T) {
			check(t, eqv.Workload{Settings: s, Trace: "testdata/azure_sample.csv"}, []eqv.Policy{p}, eqv.Event,
				eqv.StoreCold(4), eqv.StoreWarm(4))
		})
	}
}
