package sim_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// lastFirstSource holds its first Shard(0) call until Shard(P-1) has
// returned. With two workers, the worker that took shard 0 waits while the
// other produces and simulates shards 1 to P-1, so shard 0 finishes after
// shards 1 to P-2 — and a capacity run that reassembles from the source
// finishes after a sibling's reassembly. The wait is bounded: a run that
// never produces shard P-1 while shard 0 waits (one worker) times out and
// fails the test instead of hanging it.
type lastFirstSource struct {
	sim.Source
	last     chan struct{} // closed once Shard(P-1) has returned
	lastOnce sync.Once
	held     atomic.Bool // the first Shard(0) call has been made
	timedOut atomic.Bool
}

func newLastFirstSource(src sim.Source) *lastFirstSource {
	return &lastFirstSource{Source: src, last: make(chan struct{})}
}

func (s *lastFirstSource) Shard(i int) (train, simView *trace.ShardView, err error) {
	if i == 0 && s.held.CompareAndSwap(false, true) {
		select {
		case <-s.last:
		case <-time.After(10 * time.Second):
			s.timedOut.Store(true)
		}
	}
	train, simView, err = s.Source.Shard(i)
	if i == s.NumShards()-1 {
		s.lastOnce.Do(func() { close(s.last) })
	}
	return train, simView, err
}

// A run that completes is bit-identical whatever order its shards finish
// in: a SPES θ sweep over the streamed engine, and FaaSCache and LCS
// reassembling the same source side by side under one RunAll, each equal
// to the run at GOMAXPROCS 1, one worker, whose shards finish in index
// order.
func TestShardCompletionOrderDoesNotMatter(t *testing.T) {
	gen := &sim.GeneratorSource{Cfg: trace.DefaultGeneratorConfig(200, 4, 1), TrainSlots: 3 * 1440, Shards: 4}
	spes := func(theta int) func() []sim.Policy {
		return func() []sim.Policy {
			cfg := core.DefaultConfig()
			cfg.Classify.ThetaPrewarm = theta
			return []sim.Policy{core.New(cfg)}
		}
	}
	capacity := func() []sim.Policy {
		return []sim.Policy{baselines.NewFaaSCache(60), baselines.NewLCS(60)}
	}
	for _, c := range []struct {
		name     string
		policies func() []sim.Policy
	}{
		{"spes-theta-1", spes(1)},
		{"spes-theta-3", spes(3)},
		{"spes-theta-10", spes(10)},
		{"capacity", capacity},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			clean, err := sim.RunAll(c.policies(), nil, nil, sim.Options{Source: gen})
			if err != nil {
				t.Fatal(err)
			}
			runtime.GOMAXPROCS(2)
			src := newLastFirstSource(gen)
			got, err := sim.RunAll(c.policies(), nil, nil, sim.Options{Source: src})
			if err != nil {
				t.Fatal(err)
			}
			if src.timedOut.Load() {
				t.Fatal("shard 0 waited out its timeout: no second worker produced the last shard")
			}
			for i := range clean {
				if d := clean[i].Diff(got[i]); d != "" {
					t.Errorf("%s: result differs from the in-order run:\n%s", clean[i].Policy, d)
				}
			}
		})
	}
}
