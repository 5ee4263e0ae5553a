package sim

import (
	"fmt"
	"sync"

	"repro/internal/trace"
)

// Source is an iterator of per-shard train/sim trace views: the unit of
// residency of the streamed sharded engine. runShardedSrc calls Shard(i)
// once, right before simulating shard i, and drops the views when that
// simulation ends, so one shard's event series exists per in-flight
// worker — at most GOMAXPROCS of them per run, O(n/P) each instead of
// O(n) for a materialized trace pair.
//
// Contract (what the deterministic merge relies on — see DESIGN.md
// "Streaming source contract"):
//   - Shard(i) must return the exact train/sim pair that partitioning a
//     materialized trace with trace.PartitionFunctions into NumShards()
//     shards would yield for shard i: same functions (densely re-IDed in
//     ascending global order), bit-identical series, and the Global mapping
//     filled in. In particular the partition must be app/user-closed.
//   - The union of the Global slices over all shards must be exactly
//     0..NumFunctions()-1, each id once.
//   - Both views must report the same Slots()/train split for every shard,
//     and repeated calls with the same i must return identical content
//     (Shard may be called concurrently for different i).
//   - The train view may be nil (policies without an offline phase).
type Source interface {
	// NumShards returns the number of shards the source yields.
	NumShards() int
	// NumFunctions returns the total population size across all shards.
	NumFunctions() int
	// Slots returns the simulation window length in slots.
	Slots() int
	// Shard materializes shard i's training and simulation views. The
	// returned views are owned by the caller; the source must not retain
	// references (that would defeat the O(n/P) residency bound).
	Shard(i int) (train, sim *trace.ShardView, err error)
}

// SourceFingerprint identifies a source shard's train/sim content without
// materializing it: two shards may share a fingerprint only if their
// train/sim pairs are bit-identical. No engine reads it: it stays only
// because the benchmark (benchmark/wrap.go) asserts that its traced source
// forwards it, and goes with that assertion, as do GeneratorSource's and
// trace.StoreSource's ShardFingerprint methods.
type SourceFingerprint interface {
	ShardFingerprint(i int) uint64
}

// GeneratorSource streams the synthetic workload trace.Generate(cfg) would
// produce, one population shard at a time, split at TrainSlots into
// training and simulation halves. Simulating it with RunStreamed is
// bit-identical to materializing the full trace, splitting, and running
// with Options.Shards — the generator lays out one user per correlation
// component in first-function order, so the layout's user-mod-P selection
// coincides with the canonical PartitionFunctions round-robin (asserted by
// the streamed equivalence tests).
//
// The structural pass (trace.BuildGenLayout) runs once, lazily, and is
// shared by all Shard calls — shard production synthesizes only the
// selected shard's series from the recorded per-function seeds, so
// producing all P shards costs one structural pass total instead of P.
// Methods are on the pointer because of that shared state; the zero-cost
// literal &GeneratorSource{...} is the way to build one. Shard is safe to
// call concurrently.
type GeneratorSource struct {
	Cfg        trace.GeneratorConfig
	TrainSlots int // split point; 0 yields no training half
	Shards     int // shard count; values < 1 mean 1

	layoutOnce sync.Once
	layout     *trace.GenLayout
	layoutErr  error
}

// NumShards implements Source.
func (g *GeneratorSource) NumShards() int {
	if g.Shards < 1 {
		return 1
	}
	return g.Shards
}

// NumFunctions implements Source.
func (g *GeneratorSource) NumFunctions() int { return g.Cfg.Functions }

// Slots implements Source.
func (g *GeneratorSource) Slots() int { return g.Cfg.Days*1440 - g.TrainSlots }

// sharedLayout builds the structural layout on first use.
func (g *GeneratorSource) sharedLayout() (*trace.GenLayout, error) {
	g.layoutOnce.Do(func() {
		g.layout, g.layoutErr = trace.BuildGenLayout(g.Cfg)
	})
	return g.layout, g.layoutErr
}

// Shard implements Source: synthesize shard i's train and sim halves from
// the shared structural layout in one pass (trace.GenLayout.Shard).
func (g *GeneratorSource) Shard(i int) (train, sim *trace.ShardView, err error) {
	full := g.Cfg.Days * 1440
	if g.TrainSlots < 0 || g.TrainSlots >= full {
		return nil, nil, fmt.Errorf("sim: generator source train slots %d outside [0, %d)", g.TrainSlots, full)
	}
	l, err := g.sharedLayout()
	if err != nil {
		return nil, nil, err
	}
	return l.Shard(i, g.NumShards(), g.TrainSlots)
}

// ShardFingerprint implements SourceFingerprint. Generation is
// deterministic — the full generator config plus the split and shard
// coordinates uniquely determine the shard's content — so the fingerprint
// is a hash of the derivation, not of the series, and computing it
// generates nothing.
func (g *GeneratorSource) ShardFingerprint(i int) uint64 {
	return HashConfig(struct {
		Domain     string
		Cfg        trace.GeneratorConfig
		TrainSlots int
		Shards     int
		Shard      int
	}{"generator-derivation", g.Cfg, g.TrainSlots, g.NumShards(), i})
}
