package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"repro/internal/trace"
)

// Source is an iterator of per-shard train/sim trace views: the unit of
// residency of the streamed sharded engine. runShardedSrc calls Shard(i)
// inside the worker that will simulate shard i — while holding a worker
// token — so at most Options.Workers shards' event series exist in memory
// at once, O(n/P) per in-flight worker instead of O(n) for a materialized
// trace pair.
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

// SourceFingerprint is optionally implemented by sources that can identify
// a shard's train/sim content without materializing it (or cheaply, once).
// The fingerprint feeds the ShardCache key: two shards may share a
// fingerprint only if their train/sim pairs are bit-identical. Sources that
// cannot guarantee that return ok=false and their runs are simply not
// cached.
type SourceFingerprint interface {
	ShardFingerprint(i int) (fp uint64, ok bool)
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
// is a hash of the derivation, not of the series, and a cache hit skips
// generation entirely. It deliberately differs from the content fingerprint
// of a materialized shardSet (distinct domain tags): the two never share
// cache entries, which forgoes some hits but can never alias.
func (g *GeneratorSource) ShardFingerprint(i int) (uint64, bool) {
	return HashConfig(struct {
		Domain     string
		Cfg        trace.GeneratorConfig
		TrainSlots int
		Shards     int
		Shard      int
	}{"generator-derivation", g.Cfg, g.TrainSlots, g.NumShards(), i}), true
}

// fingerprintShardViews content-hashes a materialized shard's train/sim
// pair: slot spans, the local-to-global id mapping, per-function metadata,
// and every event of both series. It is the fingerprint of record for
// trace-backed sources (shardSet). Global MUST be part of the hash: the
// cache stores it and the merge scatters through it, so two shards with
// identical local content but different global placements (possible when
// one cache is shared across different parent traces) must never collide.
func fingerprintShardViews(train, sim *trace.ShardView) uint64 {
	h := fnv.New64a()
	io.WriteString(h, "trace-content\x00")
	writeU64(h, uint64(sim.Trace.Slots))
	if train != nil {
		writeU64(h, uint64(train.Trace.Slots))
	} else {
		writeU64(h, ^uint64(0))
	}
	writeU64(h, uint64(len(sim.Global)))
	for li, f := range sim.Trace.Functions {
		writeU64(h, uint64(sim.Global[li]))
		io.WriteString(h, f.Name)
		h.Write([]byte{0})
		io.WriteString(h, f.App)
		h.Write([]byte{0})
		io.WriteString(h, f.User)
		h.Write([]byte{0, byte(f.Trigger)})
		writeSeries(h, sim.Trace.Series[li])
		if train != nil {
			writeSeries(h, train.Trace.Series[li])
		}
	}
	return h.Sum64()
}

func writeSeries(h io.Writer, s trace.Series) {
	writeU64(h, uint64(len(s)))
	var buf [8]byte
	for _, e := range s {
		binary.LittleEndian.PutUint32(buf[:4], uint32(e.Slot))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.Count))
		h.Write(buf[:])
	}
}

func writeU64(h io.Writer, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}
