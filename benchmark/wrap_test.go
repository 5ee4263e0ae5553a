package main

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

// countingSPES is a second wrapper, written out method by method, that only
// counts Ticks. The traced wrapper must drive the engine exactly as this one
// does — and both exactly as the bare policy.
type countingSPES struct {
	inner *core.SPES
	ticks *atomic.Int64
}

func (c *countingSPES) Name() string                  { return c.inner.Name() }
func (c *countingSPES) Train(tr *trace.Trace)         { c.inner.Train(tr) }
func (c *countingSPES) Loaded(f trace.FuncID) bool    { return c.inner.Loaded(f) }
func (c *countingSPES) LoadedCount() int              { return c.inner.LoadedCount() }
func (c *countingSPES) TypeOf(f trace.FuncID) string  { return c.inner.TypeOf(f) }
func (c *countingSPES) ConfigHash() uint64            { return c.inner.ConfigHash() }
func (c *countingSPES) Retrain(t int, w *trace.Trace) { c.inner.Retrain(t, w) }
func (c *countingSPES) TakeLoadDeltas() ([]trace.FuncID, bool) {
	return c.inner.TakeLoadDeltas()
}
func (c *countingSPES) NextWake(after, limit int) (int, bool) {
	return c.inner.NextWake(after, limit)
}
func (c *countingSPES) Tick(t int, invs []trace.FuncCount) {
	c.ticks.Add(1)
	c.inner.Tick(t, invs)
}
func (c *countingSPES) NewShard() sim.Policy {
	return &countingSPES{inner: c.inner.NewShard().(*core.SPES), ticks: c.ticks}
}

func newTestRun() *tracedRun {
	tr := newTracer()
	return newTracedRun(tr, tr.begin("sim.run", -1, 1), 1)
}

// TestTracedProgramIsTheMeasuredProgram runs the three engine shapes the
// workloads use — unsharded, unsharded with retraining, streamed — with the
// bare policy, the counting wrapper and the traced wrapper.
func TestTracedProgramIsTheMeasuredProgram(t *testing.T) {
	// A sparse population leaves idle spans, so the Tick count shows whether
	// IdleSkipper and LoadDeltaTracker reach the engine through the wrapper.
	s := experiments.SparseSettings(20, 5)
	s.Days, s.TrainDays = 3, 2
	_, train, simTr, err := experiments.BuildWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	engines := []struct {
		name     string
		policies int
		run      func(p sim.Policy, run *tracedRun) (*sim.Result, error)
	}{
		{"unsharded", 1, func(p sim.Policy, _ *tracedRun) (*sim.Result, error) {
			return sim.Run(p, fresh(train), fresh(simTr), sim.Options{})
		}},
		{"retrain", 1, func(p sim.Policy, _ *tracedRun) (*sim.Result, error) {
			return sim.Run(p, fresh(train), fresh(simTr), sim.Options{RetrainEvery: 480})
		}},
		{"streamed", shards, func(p sim.Policy, run *tracedRun) (*sim.Result, error) {
			src, err := experiments.StreamSource(s, shards)
			if err != nil {
				return nil, err
			}
			if run == nil {
				return sim.RunStreamed(p, src, sim.Options{})
			}
			return sim.RunStreamed(p, &tracedSource{fingerprintedSource: src, run: run, name: "trace.generate"}, sim.Options{})
		}},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			bare, err := e.run(core.New(s.SPES), nil)
			if err != nil {
				t.Fatal(err)
			}
			var counted atomic.Int64
			viaCounter, err := e.run(&countingSPES{inner: core.New(s.SPES), ticks: &counted}, nil)
			if err != nil {
				t.Fatal(err)
			}
			run := newTestRun()
			viaTracer, err := e.run(&tracedSPES{SPES: core.New(s.SPES), run: run}, run)
			if err != nil {
				t.Fatal(err)
			}
			if !equalResults(bare, viaCounter) || !equalResults(bare, viaTracer) {
				t.Error("a wrapped run's Result differs from the bare policy's")
			}
			spans := run.tr.since(0)
			if got, want := int64(len(durations(spans, "core.tick"))), counted.Load(); got != want {
				t.Errorf("traced run executed %d Ticks, the counting wrapper %d", got, want)
			}
			if all := int64(e.policies * simTr.Slots); counted.Load() >= all {
				t.Errorf("%d Ticks over %d policy-slots: no idle span was skipped, the workload proves nothing", counted.Load(), all)
			}
			if e.name == "retrain" && len(durations(spans, "classify.retrain")) == 0 {
				t.Error("Retrainer did not reach the engine through the wrapper")
			}
			if e.name == "streamed" {
				if len(run.recs) != shards {
					t.Fatalf("%d shard records, want %d", len(run.recs), shards)
				}
				for i, rec := range run.recs {
					if rec.end <= rec.start {
						t.Errorf("shard record %d was never matched to its policy: %+v", i, rec)
					}
				}
			}
		})
	}
}
