package sim

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/trace"
)

// Options tunes a simulation run.
type Options struct {
	// Shards splits the function population into that many app/user-closed
	// shards (trace.PartitionFunctions) and simulates one policy instance
	// per shard concurrently, merging the per-shard results into a Result
	// bit-identical to the unsharded run. 1 selects the classic
	// single-population engine, which trains and ticks the instance passed
	// in. 0, the default, lets Run choose: a ShardedPolicy is sharded
	// runtime.GOMAXPROCS(0) ways (the single-population engine at
	// GOMAXPROCS 1), any other policy runs the single-population engine, and
	// RunAll, whose fan-out over policies already fills the cores, keeps
	// every policy unsharded. Shards > 1 requires the policy to implement
	// ShardedPolicy or CapacityPolicy (which cannot shard and runs the
	// single-population engine regardless, see capacity.go); anything else
	// refuses with an error wrapping ErrNotShardable. A sharded run treats
	// the policy passed in as a template it clones with NewShard and never
	// trains or ticks: read the outcome, Result.Types included, from the
	// Result.
	Shards int

	// Source, when non-nil, replaces the materialized train/sim trace pair:
	// Run and RunAll ignore their trace arguments and stream per-shard views
	// from it (sugar for RunStreamed). Shard views are produced inside the
	// worker that simulates them, so peak residency is O(n/P) event series
	// per in-flight worker. The policy must implement ShardedPolicy, or
	// CapacityPolicy — which runs over the whole population reassembled from
	// the source's shards, so the O(n/P) bound does not apply to it.
	Source Source

	// RetrainEvery, when positive, re-runs the policy's categorization
	// online: at every simulation slot t = k*RetrainEvery (k >= 1, before
	// slot t's invocations are observed) the simulator hands a policy
	// implementing Retrainer a sliding window of the invocations recorded
	// so far, so stale profiles chase pattern drift, flash crowds, and
	// function churn instead of running 7 simulated days on day-0 training.
	// Policies that do not implement Retrainer run unchanged. Under sharded
	// or streamed execution each shard retrains independently over its own
	// window — bit-identical to the unsharded run, because categorization
	// only couples functions the partition keeps together.
	RetrainEvery int

	// RetrainWindow is the sliding window length in slots handed to
	// Retrain. 0 defaults to the training window length (or RetrainEvery
	// when there is no training trace).
	RetrainWindow int
}

// ShardedPolicy is implemented by policies that can run as one independent
// instance per population shard. NewShard returns a fresh untrained instance
// with the same configuration; the simulator trains and ticks it over a
// single shard's trace view.
//
// A policy may implement this only if its decisions for a function depend on
// nothing outside that function's app/user component (the partitioning
// invariant of trace.PartitionFunctions): per-function timers and histograms
// qualify, app- or user-scoped correlation qualifies, global capacity
// limits (FaaSCache, LCS) do not — independent per-shard instances would
// change their evictions. Those policies implement CapacityPolicy instead
// and always run over the whole population (capacity.go).
type ShardedPolicy interface {
	NewShard() Policy
}

// shardSet carries one partition of a train/sim trace pair into shard
// views. Views are safe to share across concurrent policy runs: series are
// read-only, and each run transposes them with a cursor of its own. It is the
// materialized-trace implementation of Source: all views exist up front, so
// Shard just hands them out.
type shardSet struct {
	sim   []*trace.ShardView
	train []*trace.ShardView // nil when there is no training trace

	functions int
	slots     int
}

// buildShardSet partitions the population once and materializes the P
// train/sim shard views. A shard's training view shares its simulation
// view's Functions and Global, as the halves of trace.GenLayout.Shard do:
// the pair describes one population, so its metadata is re-IDed once.
func buildShardSet(training, simTrace *trace.Trace, p int) *shardSet {
	part := trace.PartitionFunctions(simTrace.Functions, p)
	ss := &shardSet{
		sim:       make([]*trace.ShardView, p),
		functions: simTrace.NumFunctions(),
		slots:     simTrace.Slots,
	}
	if training != nil {
		ss.train = make([]*trace.ShardView, p)
	}
	for i := 0; i < p; i++ {
		sv := simTrace.ShardBy(part, i)
		ss.sim[i] = sv
		if training == nil {
			continue
		}
		series := make([]trace.Series, len(sv.Global))
		for li, g := range sv.Global {
			series[li] = training.Series[g]
		}
		ss.train[i] = &trace.ShardView{
			Trace: &trace.Trace{Slots: training.Slots, Functions: sv.Functions, Series: series},
			Index: i, Global: sv.Global,
		}
	}
	return ss
}

// NumShards implements Source.
func (ss *shardSet) NumShards() int { return len(ss.sim) }

// NumFunctions implements Source.
func (ss *shardSet) NumFunctions() int { return ss.functions }

// Slots implements Source.
func (ss *shardSet) Slots() int { return ss.slots }

// Shard implements Source.
func (ss *shardSet) Shard(i int) (train, sim *trace.ShardView, err error) {
	if ss.train != nil {
		train = ss.train[i]
	}
	return train, ss.sim[i], nil
}

// slotLog records a shard run's per-slot post-Tick loaded and active-loaded
// counts. The sharded merge re-derives the population-global per-slot
// aggregates (memory, peak, idle, EMCR terms) from the sums of these
// vectors, reproducing the unsharded engine's arithmetic exactly.
type slotLog struct {
	loaded []int32
	active []int32
}

// Run trains the policy on training (which may be nil for policies without
// an offline phase) and simulates it over simTrace, returning the metric
// bundle the experiments read. The two traces must describe the same
// function population (same FuncID space). The sharded engine — one policy
// instance per population shard, concurrently, with a deterministic merge
// bit-identical to the single-population engine — runs when
// Options.Shards > 1, and by default (Shards 0) for a ShardedPolicy at
// GOMAXPROCS > 1, GOMAXPROCS shards wide (Options.shardsFor). Under it the
// policy passed in is a template cloned per shard: it is never trained or
// ticked, and the outcome is the Result alone.
//
// Failure contract (see DESIGN.md "Failure semantics"): a partial merge
// would be a wrong answer, so Run returns a nil Result on any failure.
// Under the sharded engine a failing (or panicking) shard does not abort
// its siblings: every shard runs once to its own verdict, and the returned
// error is an errors.Join of one structured ShardError per failed shard
// (unpack with errors.As).
func Run(policy Policy, training, simTrace *trace.Trace, opts Options) (*Result, error) {
	if opts.Source != nil {
		return RunStreamed(policy, opts.Source, opts)
	}
	if err := checkPair(training, simTrace); err != nil {
		return nil, err
	}
	if opts.Shards = opts.shardsFor(policy); opts.Shards > 1 {
		return runSharded(policy, training, simTrace, opts, nil)
	}
	return runOne(policy, training, simTrace, opts, nil)
}

// shardsFor resolves Options.Shards for a run of policy over a
// materialized pair: a set value stands, and the default (0) shards a
// ShardedPolicy that is not capacity-coupled GOMAXPROCS ways — at
// GOMAXPROCS 1 that is the single-population engine — and runs every other
// policy unsharded.
func (o Options) shardsFor(policy Policy) int {
	if o.Shards != 0 {
		return o.Shards
	}
	_, sharded := policy.(ShardedPolicy)
	_, capacity := policy.(CapacityPolicy)
	if !sharded || capacity {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// ErrUntrained is the sentinel wrapped by the refusal a run returns when it
// has no training trace and the policy's loaded set, which only Train
// sizes, covers fewer functions than the simulation: the Driver's first
// scan of the set would read past its end.
var ErrUntrained = errors.New("sim: policy not trained")

// sizedSet is a policy that reports how many functions its loaded set
// covers: every policy that embeds LoadedSet.
type sizedSet interface{ Len() int }

// checkPair refuses a train/sim pair Run cannot simulate: a missing
// simulation trace, function populations that differ, or an event at a
// negative slot.
func checkPair(training, simTrace *trace.Trace) error {
	if simTrace == nil {
		return fmt.Errorf("sim: nil simulation trace")
	}
	if training != nil && training.NumFunctions() != simTrace.NumFunctions() {
		return fmt.Errorf("sim: training has %d functions, simulation %d",
			training.NumFunctions(), simTrace.NumFunctions())
	}
	if err := checkSlots("training", training); err != nil {
		return err
	}
	return checkSlots("simulation", simTrace)
}

// checkSlots refuses a trace (nil passes) with an event at a negative slot.
// Series are sorted, so each series' first event is the only one to check.
// Events at or past Slots are not errors: every reader ignores them.
func checkSlots(what string, tr *trace.Trace) error {
	if tr == nil {
		return nil
	}
	for f, s := range tr.Series {
		if len(s) > 0 && s[0].Slot < 0 {
			return fmt.Errorf("sim: %s trace: function %d (%q) has an event at negative slot %d",
				what, f, tr.Functions[f].Name, s[0].Slot)
		}
	}
	return nil
}

// runOne is the single-population simulation loop: the batch driver of the
// event-stream Driver. It feeds the Driver only the occupied slots, as the
// simulation trace's one trace.Cursor transposes them — the Driver
// advances the invocation-free gaps itself (batch-charging provably idle
// spans, slot-by-slot ticks otherwise), which is the exact arithmetic the
// loop used to do eagerly. The Driver steps one of two chunks while the
// next is transposed into the other, in one trace.Overlap. When log is
// non-nil the per-slot (loaded, active) counts are recorded for the
// sharded merge.
//
// A run that retrains hands the Driver a Window that builds each
// boundary's window, a view of the training and simulation traces
// (BuildRetrainWindow), when the Driver asks for it, right before Retrain.
func runOne(policy Policy, training, simTrace *trace.Trace, opts Options, log *slotLog) (*Result, error) {
	if training != nil {
		policy.Train(training)
	} else if l, ok := policy.(sizedSet); ok && l.Len() < simTrace.NumFunctions() {
		return nil, fmt.Errorf("%w: %s covers %d of the simulation's %d functions; pass a training trace",
			ErrUntrained, policy.Name(), l.Len(), simTrace.NumFunctions())
	}

	cfg := DriverConfig{log: log}
	if _, ok := policy.(Retrainer); ok && opts.RetrainEvery > 0 {
		cfg.RetrainEvery = opts.RetrainEvery
		cfg.RetrainWindow = opts.retrainEffectiveWindow(training)
		cfg.Window = func(at, w int) *trace.Trace { return BuildRetrainWindow(training, simTrace, at, w) }
	}
	d := NewDriver(policy, simTrace.NumFunctions(), cfg)
	cur := simTrace.Cursor(0, simTrace.Slots)
	chunks := cur.NewChunks(2, engineChunk)
	fill := func(k int) bool { return cur.Fill(&chunks[k]) }
	step := func(k int) error {
		ch := &chunks[k]
		from, to := ch.Span()
		for t := from; t < to; t++ {
			if invs := ch.At(t); len(invs) > 0 {
				if _, err := d.Step(t, invs); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// A shard of the sharded engine (log != nil) runs its rounds one-wide:
	// the fan-out over shards already keeps every core busy, and a round
	// helper per chunk of a small shard costs more than the fill it moves.
	// The Driver's steps are the longer stage, so they go first.
	width := 2
	if log != nil {
		width = 1
	}
	fill(0)
	if err := trace.Overlap(width, true, fill, step); err != nil {
		return nil, err
	}
	return d.Close(simTrace.Slots), nil
}

// engineChunk is the slot count of each of runOne's two chunks: together
// they hold the events BySlot's one 64-slot chunk does.
const engineChunk = 32

// RunStreamed simulates the policy over a Source: the sharded engine with
// the shard as the unit of residency. Each worker produces one shard's
// train/sim views (src.Shard), simulates them and drops the series before
// it takes the next shard, so peak memory is one shard's O(n/P) event
// series per in-flight worker plus the O(n) merged result — never the full
// trace. The merge is identical to the materialized sharded engine's, so
// results are bit-identical to Run over the equivalent trace pair (the
// equivalence tests assert it). The policy must implement ShardedPolicy,
// even for a single-shard source — or CapacityPolicy, which gives up the
// residency bound: it runs over the population reassembled from the
// source's shards (capacity.go).
func RunStreamed(policy Policy, src Source, opts Options) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("sim: nil source")
	}
	opts.Source = nil // consumed here; Run would otherwise recurse
	opts.Shards = src.NumShards()
	if opts.Shards < 1 {
		return nil, fmt.Errorf("sim: source reports %d shards", opts.Shards)
	}
	if cp, ok := policy.(CapacityPolicy); ok {
		return runCapacity(cp, nil, nil, src, opts)
	}
	return runShardedSrc(policy, src, opts)
}

// runSharded splits the population into opts.Shards app/user-closed shards
// (ss, the partition RunAll shares, or a fresh one when nil) and runs the
// source-driven engine over the materialized views. A capacity-coupled
// policy cannot shard and runs over the pair as it is.
func runSharded(policy Policy, training, simTrace *trace.Trace, opts Options, ss *shardSet) (*Result, error) {
	if cp, ok := policy.(CapacityPolicy); ok {
		return runCapacity(cp, training, simTrace, nil, opts)
	}
	if ss == nil {
		ss = buildShardSet(training, simTrace, opts.Shards)
	}
	return runShardedSrc(policy, ss, opts)
}

// runShardedSrc simulates one fresh policy instance per source shard, on a
// trace.FanOut of width GOMAXPROCS, and merges the shard results. Each
// shard's worker produces its views itself, right before simulating them,
// which is what bounds streamed residency to one shard per in-flight
// worker.
//
// The merge is deterministic and bit-identical to the unsharded engine:
//   - Per-function metrics and type labels are scattered back through each
//     shard's local-to-global id mapping (disjoint slots, any order).
//   - Integer totals (invocations, cold starts) are sums of integers.
//   - The per-slot aggregates — memory, peak loaded, idle minutes, and the
//     EMCR ratio terms — are NOT sums of per-shard aggregates (a ratio of
//     sums is not a sum of ratios), so each shard records its per-slot
//     loaded/active counts and the merge recomputes every slot's global
//     values from the integer sums, applying the exact formulas (and float
//     summation order: slot 0, 1, 2, ...) of the unsharded loop.
func runShardedSrc(policy Policy, src Source, opts Options) (*Result, error) {
	sp, ok := policy.(ShardedPolicy)
	if !ok {
		return nil, fmt.Errorf("%w: %s implements neither sim.ShardedPolicy nor sim.CapacityPolicy; run it with Options.Shards <= 1", ErrNotShardable, policy.Name())
	}
	p := src.NumShards()
	slots := src.Slots()

	inner := opts
	inner.Shards = 0

	results := make([]*Result, p)
	logs := make([]*slotLog, p)
	globals := make([][]trace.FuncID, p)
	errs := make([]error, p)

	// shard is shard i's work: its views produced and simulated.
	shard := func(i int) error {
		tv, sv, err := src.Shard(i)
		if err != nil {
			return fmt.Errorf("producing shard: %w", err)
		}
		var training *trace.Trace
		if tv != nil {
			training = tv.Trace
		}
		globals[i] = sv.Global
		logs[i] = &slotLog{
			loaded: make([]int32, 0, slots),
			active: make([]int32, 0, slots),
		}
		res, err := runOne(sp.NewShard(), training, sv.Trace, inner, logs[i])
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	}
	// Every shard runs once to its own verdict inside the isolation
	// boundary (isolateShard) while the others keep running.
	trace.FanOut(runtime.GOMAXPROCS(0), p, func(_, i int) error {
		errs[i] = isolateShard(policy.Name(), i, p, func() error { return shard(i) })
		return nil
	})

	// Aggregate instead of aborting on the first failure: every failed
	// shard contributes its ShardError. A partial merge would be a wrong
	// Result, so any failure means a nil Result.
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	return mergeShardResults(policy.Name(), slots, src.NumFunctions(), globals, results, logs), nil
}

// mergeShardResults folds per-shard results into the population-global
// Result. See runShardedSrc for the determinism argument.
func mergeShardResults(name string, slots, n int, globals [][]trace.FuncID, results []*Result, logs []*slotLog) *Result {
	res := &Result{
		Policy:    name,
		Slots:     slots,
		Functions: n,
		PerFunc:   make([]FuncMetrics, n),
	}
	allTyped := true
	for i, sr := range results {
		for li, g := range globals[i] {
			res.PerFunc[g] = sr.PerFunc[li]
		}
		res.TotalInvocations += sr.TotalInvocations
		res.TotalInvokedSlot += sr.TotalInvokedSlot
		res.TotalColdStarts += sr.TotalColdStarts
		res.Overhead += sr.Overhead
		if sr.Types == nil {
			allTyped = false
		}
	}
	if allTyped && len(results) > 0 {
		res.Types = make([]string, n)
		for i, sr := range results {
			for li, g := range globals[i] {
				res.Types[g] = sr.Types[li]
			}
		}
	}

	// Per-slot global aggregates from the integer sums of the shard logs,
	// in slot order — the same arithmetic, on the same values, in the same
	// order as the unsharded loop's phase 3.
	for t := 0; t < res.Slots; t++ {
		loadedCount, activeLoaded := 0, 0
		for _, lg := range logs {
			loadedCount += int(lg.loaded[t])
			activeLoaded += int(lg.active[t])
		}
		res.TotalMemory += int64(loadedCount)
		if loadedCount > res.MaxLoaded {
			res.MaxLoaded = loadedCount
		}
		idle := loadedCount - activeLoaded
		if idle < 0 {
			idle = 0
		}
		res.TotalWMT += int64(idle)
		if loadedCount > 0 {
			res.EMCRSum += float64(activeLoaded) / float64(loadedCount)
			res.EMCRSlots++
		}
	}
	return res
}

// RunAll simulates several policies over the same train/sim pair, returning
// results in input order. Policy runs are independent (each policy owns its
// state and the traces are only read), so they execute concurrently on one
// trace.FanOut of width GOMAXPROCS; with Options.Shards > 1 each policy's
// shard runs fan out again, and FanOut's process-wide GOMAXPROCS token
// budget keeps policies x shards to GOMAXPROCS+1 simulations at once. With
// Options.Shards 0 every policy runs unsharded: the fan-out over policies
// already fills the cores.
//
// Failure contract (see DESIGN.md "Failure semantics"): one failing policy
// no longer aborts the others. RunAll always returns the full results slice
// — results[i] is nil exactly when policy i failed — together with an
// errors.Join of every per-policy error (each wrapping that policy's
// ShardErrors where applicable), or nil when everything succeeded. Callers
// that want the old all-or-nothing behaviour just check err != nil; callers
// that can use partial results filter the nils. A policy that panics
// (outside the sharded engine's per-shard isolation) stops RunAll from
// starting further policies, and the panic is raised again on the caller
// once the policies in flight have finished.
func RunAll(policies []Policy, training, simTrace *trace.Trace, opts Options) ([]*Result, error) {
	if opts.Shards == 0 {
		opts.Shards = 1
	}
	run := func(p Policy) (*Result, error) { return Run(p, training, simTrace, opts) }
	if opts.Source == nil && opts.Shards > 1 && checkPair(training, simTrace) == nil {
		// Partition once and share the shard views across all policies,
		// as the unsharded path shares the one simTrace.
		ss := buildShardSet(training, simTrace, opts.Shards)
		run = func(p Policy) (*Result, error) { return runSharded(p, training, simTrace, opts, ss) }
	}
	// Under Shards > 1 or a Source a CapacityPolicy is one indivisible run
	// over the whole population, while the other policies' shards fill
	// whichever workers are free, so the capacity runs are handed out
	// first rather than left to lengthen the tail.
	sharding := opts.Shards > 1 || opts.Source != nil
	order := make([]int, 0, len(policies))
	for _, first := range []bool{true, false} {
		for i, p := range policies {
			if _, cp := p.(CapacityPolicy); (cp && sharding) == first {
				order = append(order, i)
			}
		}
	}
	results := make([]*Result, len(policies))
	errs := make([]error, len(policies))
	trace.FanOut(runtime.GOMAXPROCS(0), len(policies), func(_, k int) error {
		i := order[k]
		r, err := run(policies[i])
		if err != nil {
			errs[i] = fmt.Errorf("sim: policy %s: %w", policies[i].Name(), err)
			return nil
		}
		results[i] = r
		return nil
	})
	return results, errors.Join(errs...)
}
