package sim_test

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// calls counts, over an instance and every clone NewShard makes of it, the
// NewShard and Train calls of one run, and whether the instance passed to
// the run was trained itself.
type calls struct {
	clones, trains atomic.Int32
	selfTrained    atomic.Bool
}

// countedSPES is SPES counting into c. It embeds *core.SPES, so the engine
// finds every optional interface SPES implements.
type countedSPES struct {
	*core.SPES
	c    *calls
	self bool // the instance passed to the run
}

func newCounted() *countedSPES {
	return &countedSPES{SPES: core.New(core.DefaultConfig()), c: new(calls), self: true}
}

func (p *countedSPES) Train(tr *trace.Trace) {
	p.c.trains.Add(1)
	if p.self {
		p.c.selfTrained.Store(true)
	}
	p.SPES.Train(tr)
}

func (p *countedSPES) NewShard() sim.Policy {
	p.c.clones.Add(1)
	return &countedSPES{SPES: p.SPES.NewShard().(*core.SPES), c: p.c}
}

// panicSPES is a countedSPES whose every Tick panics.
type panicSPES struct{ *countedSPES }

func (p panicSPES) Tick(int, []trace.FuncCount) { panic("tick crash") }

func (p panicSPES) NewShard() sim.Policy { return panicSPES{p.countedSPES.NewShard().(*countedSPES)} }

// plainPolicy hides everything of a policy but sim.Policy: neither sharded
// nor capacity-bound.
type plainPolicy struct{ sim.Policy }

// shardableCap is FaaSCache with a NewShard it must never be asked for: a
// capacity-coupled policy is not cloned, whatever else it implements.
type shardableCap struct {
	sim.CapacityPolicy
	c *calls
}

func (p shardableCap) NewShard() sim.Policy {
	p.c.clones.Add(1)
	return shardableCap{baselines.NewFaaSCache(p.Capacity()), p.c}
}

// dispatchPair is a generated workload of that many functions, two days of
// training and one simulated.
func dispatchPair(t *testing.T, functions int) (train, simTr *trace.Trace) {
	t.Helper()
	full, err := trace.Generate(trace.DefaultGeneratorConfig(functions, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	return full.Split(2 * 1440)
}

// TestDefaultShardsDispatch pins which engine Run picks. With
// Options.Shards 0 a ShardedPolicy is cloned GOMAXPROCS times and the
// instance passed in is never trained; at GOMAXPROCS 1, with Shards 1, for
// a policy that cannot shard, for a capacity-coupled one and under RunAll
// the instance itself is trained and nothing is cloned. Every run returns
// the Shards 1 result. It sets the process's GOMAXPROCS (the P count, not
// OS threads), so it must not run in parallel.
func TestDefaultShardsDispatch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	train, simTr := dispatchPair(t, 60)
	ref, err := sim.Run(core.New(core.DefaultConfig()), train, simTr, sim.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		procs, shards int
		runAll        bool
		clones        int32
	}{
		{"default/gomaxprocs-2", 2, 0, false, 2},
		{"default/gomaxprocs-1", 1, 0, false, 0},
		{"default/gomaxprocs-3", 3, 0, false, 3},
		{"shards-1/gomaxprocs-2", 2, 1, false, 0},
		{"RunAll-default/gomaxprocs-2", 2, 0, true, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			runtime.GOMAXPROCS(c.procs)
			p := newCounted()
			var res *sim.Result
			var err error
			if c.runAll {
				var rs []*sim.Result
				rs, err = sim.RunAll([]sim.Policy{p}, train, simTr, sim.Options{Shards: c.shards})
				res = rs[0]
			} else {
				res, err = sim.Run(p, train, simTr, sim.Options{Shards: c.shards})
			}
			if err != nil {
				t.Fatal(err)
			}
			if d := ref.Diff(res); d != "" {
				t.Errorf("result differs from the Shards 1 run:\n%s", d)
			}
			clones, trains := p.c.clones.Load(), p.c.trains.Load()
			if clones != c.clones {
				t.Errorf("%d NewShard calls, want %d", clones, c.clones)
			}
			if want := max(c.clones, 1); trains != want {
				t.Errorf("%d Train calls, want %d", trains, want)
			}
			if self := p.c.selfTrained.Load(); self != (c.clones == 0) {
				t.Errorf("instance passed in trained: %t, want %t", self, c.clones == 0)
			}
		})
	}

	runtime.GOMAXPROCS(2)
	t.Run("not-shardable", func(t *testing.T) {
		p := newCounted()
		res, err := sim.Run(plainPolicy{p}, train, simTr, sim.Options{})
		if err != nil {
			t.Fatalf("a policy that cannot shard: %v, want it run unsharded, not refused", err)
		}
		if !p.c.selfTrained.Load() || p.c.clones.Load() != 0 {
			t.Errorf("trained itself %t, %d clones; want the instance run, no clone", p.c.selfTrained.Load(), p.c.clones.Load())
		}
		// plainPolicy hides TypeOf, so only the labels can differ.
		want := *ref
		want.Types = nil
		if d := want.Diff(res); d != "" {
			t.Errorf("result differs from the Shards 1 run:\n%s", d)
		}
	})
	t.Run("capacity", func(t *testing.T) {
		n := simTr.NumFunctions()
		want, err := sim.Run(baselines.NewFaaSCache(n/4), train, simTr, sim.Options{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		c := new(calls)
		for _, opts := range []sim.Options{{}, {Shards: 2}} {
			got, err := sim.Run(shardableCap{baselines.NewFaaSCache(n / 4), c}, train, simTr, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := want.Diff(got); d != "" {
				t.Errorf("Shards %d: result differs from the Shards 1 run:\n%s", opts.Shards, d)
			}
		}
		if n := c.clones.Load(); n != 0 {
			t.Errorf("a capacity-coupled policy was cloned %d times", n)
		}
	})
}

// TestDefaultShardsLeaveShardsEmpty runs a one-function trace at
// GOMAXPROCS 8: seven of the default run's eight shards hold no function,
// and the merged result still equals the unsharded one.
func TestDefaultShardsLeaveShardsEmpty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	train, simTr := dispatchPair(t, 1)
	if simTr.NumFunctions() != 1 {
		t.Fatalf("%d functions, want 1", simTr.NumFunctions())
	}
	want, err := sim.Run(core.New(core.DefaultConfig()), train, simTr, sim.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := newCounted()
	got, err := sim.Run(p, train, simTr, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := p.c.clones.Load(); n != 8 {
		t.Errorf("%d NewShard calls, want 8", n)
	}
	if d := want.Diff(got); d != "" {
		t.Errorf("result differs from the Shards 1 run:\n%s", d)
	}
}

// TestDefaultShardsPanicFailsStructured: a policy that panics under the
// default engine at GOMAXPROCS 2 fails as the sharded engine does, with a
// ShardError marked Panicked per shard and no Result (DESIGN.md "Failure
// semantics").
func TestDefaultShardsPanicFailsStructured(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	train, simTr := dispatchPair(t, 60)
	res, err := sim.Run(panicSPES{newCounted()}, train, simTr, sim.Options{})
	if res != nil {
		t.Error("a failed run returned a Result")
	}
	var se *sim.ShardError
	if !errors.As(err, &se) || !se.Panicked || se.Shards != 2 {
		t.Fatalf("got %v, want a ShardError of 2 shards marked Panicked", err)
	}
}
