package baselines

import "repro/internal/sim"

// Sharded-execution support (sim.ShardedPolicy). A baseline may only opt in
// when its decisions for a function depend on nothing outside that
// function's app/user component: FixedKeepAlive and HybridFunction are
// purely per-function, HybridApplication aggregates per application (apps
// never cross shards), and Defuse mines dependencies within applications
// and keeps per-function histograms. FaaSCache and LCS do NOT implement the
// interface — their global capacity couples every function to every other,
// so independent per-shard instances would evict differently than one
// global instance. They are sim.CapacityPolicy instead: one instance over
// the whole population whatever Options.Shards says.

// NewShard implements sim.ShardedPolicy.
func (p *FixedKeepAlive) NewShard() sim.Policy { return NewFixedKeepAlive(p.keepAlive) }

// NewShard implements sim.ShardedPolicy.
func (p *Hybrid) NewShard() sim.Policy {
	if p.appWise {
		return NewHybridApplication()
	}
	return NewHybridFunction()
}

// NewShard implements sim.ShardedPolicy.
func (p *Defuse) NewShard() sim.Policy { return NewDefuse() }
