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
		return NewHybridApplication(p.cfg)
	}
	return NewHybridFunction(p.cfg)
}

// NewShard implements sim.ShardedPolicy.
func (p *Defuse) NewShard() sim.Policy { return NewDefuse(p.cfg) }

// Shard-cache support (sim.ConfigHasher). Each hash covers the policy's
// complete behaviour-affecting configuration via sim.HashConfig, so adding
// a config field invalidates old cache entries automatically. The
// capacity-coupled baselines hash too, so sweep tooling can fingerprint
// their configs, although a ShardCache attached to their runs is refused
// (sim.CapacityCacheError); their Engine string names the eviction-order
// rule, so a fingerprint minted under another tie-break never vouches for
// this one.

// ConfigHash implements sim.ConfigHasher: the keep-alive window is the whole
// configuration.
func (p *FixedKeepAlive) ConfigHash() uint64 {
	return sim.HashConfig(struct{ KeepAlive int }{p.keepAlive})
}

// ConfigHash implements sim.ConfigHasher. appWise is part of the hash even
// though HF and HA also differ by Name(): the key must stay correct if the
// names ever converge.
func (p *Hybrid) ConfigHash() uint64 {
	return sim.HashConfig(struct {
		Cfg     HybridConfig
		AppWise bool
	}{p.cfg, p.appWise})
}

// ConfigHash implements sim.ConfigHasher.
func (p *Defuse) ConfigHash() uint64 { return sim.HashConfig(p.cfg) }

// ConfigHash implements sim.ConfigHasher.
func (p *FaaSCache) ConfigHash() uint64 {
	return sim.HashConfig(struct {
		Capacity int
		Engine   string
	}{p.capacity, "gdsf/fid-tiebreak"})
}

// ConfigHash implements sim.ConfigHasher.
func (p *LCS) ConfigHash() uint64 {
	return sim.HashConfig(struct {
		Capacity int
		Engine   string
	}{p.capacity, "lru/fid-tiebreak"})
}
