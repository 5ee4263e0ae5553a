package sim

import (
	"fmt"

	"repro/internal/trace"
)

// Capacity-coupled policies (FaaSCache's GDSF cache, LCS's LRU warm pool)
// evict against one global memory budget: every eviction compares every
// loaded function with every other, so they cannot run as independent shard
// instances. They do not shard at all. Asked to run with Options.Shards > 1
// they run the single-population loop (runOne) over the materialized pair;
// asked to run over a Source they run it over the population reassembled
// from the source's shards. Either way the result is the unsharded result
// by construction, and the whole population is resident for the whole run.

// CapacityPolicy marks a policy whose evictions couple the whole population
// through a global budget. Capacity returns that budget in instances.
type CapacityPolicy interface {
	Policy
	Capacity() int
}

// runCapacity runs a capacity-coupled policy under Shards > 1 or a Source:
// runOne over the given pair, or over the pair reassembled from src when
// src is non-nil, on the caller's goroutine — one unit of work, one item
// of RunAll's fan-out.
func runCapacity(cp CapacityPolicy, training, simTrace *trace.Trace, src Source, opts Options) (res *Result, err error) {
	// A panicking policy or source must not kill the process. The sharded
	// engine contains panics per shard; there is one unit of work here.
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, fmt.Errorf("sim: policy %s: %w", cp.Name(), &panicError{val: v})
		}
	}()

	if budget := cp.Capacity(); budget <= 0 {
		return nil, fmt.Errorf("sim: policy %s reports capacity %d; the global budget must be positive", cp.Name(), budget)
	}

	if src != nil {
		if training, simTrace, err = reassemble(cp.Name(), src); err != nil {
			return nil, err
		}
	}
	return runOne(cp, training, simTrace, opts, nil)
}

// reassemble produces every shard of src and scatters the views' functions
// and series through ShardView.Global back into one population-wide
// train/sim pair — the pair partitioning produced the shards from. Series
// are shared with the views, not copied, and the two traces share one
// Functions slice (as trace.Split's do); train is nil when the source has
// no training half. Production goes through isolateShard like the sharded
// engine's. Every Source contract clause the scatter depends on is checked,
// so a broken source is an error naming the shard, never a panic or a
// silently wrong trace.
func reassemble(policy string, src Source) (train, sim *trace.Trace, err error) {
	p, n := src.NumShards(), src.NumFunctions()
	sim = &trace.Trace{
		Slots:     src.Slots(),
		Functions: make([]trace.Function, n),
		Series:    make([]trace.Series, n),
	}
	seen := make([]bool, n)
	// scatter places one shard's views, or says which contract clause they
	// break.
	scatter := func(i int, tv, sv *trace.ShardView) error {
		if i == 0 && tv != nil {
			train = &trace.Trace{Slots: tv.Slots, Functions: sim.Functions, Series: make([]trace.Series, n)}
		}
		switch {
		case (tv != nil) != (train != nil):
			return fmt.Errorf("training view present=%v, shard 0's present=%v", tv != nil, train != nil)
		case sv.Slots != sim.Slots:
			return fmt.Errorf("simulation view spans %d slots, the source reports %d", sv.Slots, sim.Slots)
		case tv != nil && tv.Slots != train.Slots:
			return fmt.Errorf("training view spans %d slots, shard 0's %d", tv.Slots, train.Slots)
		case len(sv.Functions) != len(sv.Global) || len(sv.Series) != len(sv.Global):
			return fmt.Errorf("%d functions and %d series for %d global ids", len(sv.Functions), len(sv.Series), len(sv.Global))
		case tv != nil && len(tv.Series) != len(sv.Global):
			return fmt.Errorf("%d training series for %d global ids", len(tv.Series), len(sv.Global))
		}
		for li, g := range sv.Global {
			if g < 0 || int(g) >= n {
				return fmt.Errorf("global id %d outside [0, %d)", g, n)
			}
			if seen[g] {
				return fmt.Errorf("global id %d was already produced", g)
			}
			seen[g] = true
			sim.Functions[g] = sv.Functions[li]
			sim.Functions[g].ID = g
			sim.Series[g] = sv.Series[li]
			if tv != nil {
				train.Series[g] = tv.Series[li]
			}
		}
		return nil
	}
	for i := 0; i < p; i++ {
		var tv, sv *trace.ShardView
		if err := isolateShard(policy, i, p, func() (err error) {
			if tv, sv, err = src.Shard(i); err != nil {
				return fmt.Errorf("producing shard: %w", err)
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
		if err := scatter(i, tv, sv); err != nil {
			return nil, nil, fmt.Errorf("sim: source shard %d/%d breaks the Source contract: %w", i, p, err)
		}
	}
	for g, ok := range seen {
		if !ok {
			return nil, nil, fmt.Errorf("sim: source breaks the Source contract: none of its %d shards produced global id %d", p, g)
		}
	}
	return train, sim, nil
}
