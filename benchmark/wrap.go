package main

import (
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tracedRun is what one traced repetition shares between its wrapped source
// and its wrapped policies: the tracer, the span the engine call runs under,
// and per-shard records that let a shard policy find out which shard it is.
type tracedRun struct {
	tr     *tracer
	parent int // span of the sim.Run / sim.RunStreamed call
	op     int

	mu     sync.Mutex
	shards map[*trace.Trace]*shardRec // keyed by the shard's training trace
	recs   []*shardRec
}

func newTracedRun(tr *tracer, parent, op int) *tracedRun {
	return &tracedRun{tr: tr, parent: parent, op: op, shards: map[*trace.Trace]*shardRec{}}
}

// shardRec is one shard's share of a sharded run. Its busy time is the
// interval from the start of Train to the end of the last Tick: what a worker
// spends simulating it. Production is left out because the engine overlaps
// it with the previous shard's simulation; its spans carry that time.
type shardRec struct {
	events     int64 // simulation-window events
	start, end int64 // tracer clock
}

func (s *shardRec) busySeconds() float64 { return float64(s.end-s.start) / 1e9 }

// tracedSPES records a span around every call the engine makes into SPES.
// It embeds *core.SPES so that every optional interface the engines probe
// for (LoadDeltaTracker, IdleSkipper, Retrainer, TypeTagger, ShardedPolicy,
// ConfigHasher) is forwarded: the engine takes the same code paths — delta
// accounting, idle-span skipping, retraining, sharding — as with the bare
// policy, and wrap_test.go holds it to the same Result and Tick count.
type tracedSPES struct {
	*core.SPES
	run   *tracedRun
	shard *shardRec // nil for an unsharded policy or before Train
}

var (
	_ sim.LoadDeltaTracker  = (*tracedSPES)(nil)
	_ sim.IdleSkipper       = (*tracedSPES)(nil)
	_ sim.Retrainer         = (*tracedSPES)(nil)
	_ sim.TypeTagger        = (*tracedSPES)(nil)
	_ sim.ShardedPolicy     = (*tracedSPES)(nil)
	_ sim.ConfigHasher      = (*tracedSPES)(nil)
	_ sim.SourceFingerprint = (*tracedSource)(nil)
)

func (p *tracedSPES) Train(training *trace.Trace) {
	p.run.mu.Lock()
	p.shard = p.run.shards[training]
	p.run.mu.Unlock()
	id := p.run.tr.begin("core.train", p.run.parent, p.run.op)
	p.SPES.Train(training)
	sp := p.run.tr.end(id)
	if p.shard != nil {
		p.shard.start, p.shard.end = sp.Start, sp.End
	}
}

func (p *tracedSPES) Tick(t int, invs []trace.FuncCount) {
	id := p.run.tr.begin("core.tick", p.run.parent, p.run.op)
	p.SPES.Tick(t, invs)
	sp := p.run.tr.end(id)
	if p.shard != nil {
		p.shard.end = sp.End
	}
}

func (p *tracedSPES) Retrain(t int, window *trace.Trace) {
	id := p.run.tr.begin("classify.retrain", p.run.parent, p.run.op)
	p.SPES.Retrain(t, window)
	p.run.tr.end(id)
}

func (p *tracedSPES) NewShard() sim.Policy {
	return &tracedSPES{SPES: p.SPES.NewShard().(*core.SPES), run: p.run}
}

// tracedSource records a span around every shard production. It embeds the
// source it wraps as the interface pair the engines use, so a source's
// SourceFingerprint is forwarded too.
type tracedSource struct {
	fingerprintedSource
	run  *tracedRun
	name string // span name: the producing layer's
}

type fingerprintedSource interface {
	sim.Source
	sim.SourceFingerprint
}

func (s *tracedSource) Shard(i int) (train, simView *trace.ShardView, err error) {
	id := s.run.tr.begin(s.name, s.run.parent, s.run.op)
	train, simView, err = s.fingerprintedSource.Shard(i)
	s.run.tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	rec := &shardRec{}
	for _, series := range simView.Series {
		rec.events += int64(len(series))
	}
	s.run.mu.Lock()
	if train != nil {
		s.run.shards[train.Trace] = rec
	}
	s.run.recs = append(s.run.recs, rec)
	s.run.mu.Unlock()
	return train, simView, nil
}
