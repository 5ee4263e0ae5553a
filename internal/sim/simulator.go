package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/trace"
)

// Options tunes a simulation run.
type Options struct {
	// MeasureOverhead enables wall-clock timing of every Tick call. It is
	// off by default because timing syscalls dominate small runs. It also
	// makes RunAll run its policies one after another, since per-Tick
	// timings taken while runs contend for cores would be meaningless. It is
	// an unsharded measurement: the sharded engine refuses it (a
	// CapacityPolicy, which runs the unsharded loop whatever Shards says,
	// keeps it).
	MeasureOverhead bool

	// Shards splits the function population into that many app/user-closed
	// shards (trace.PartitionFunctions) and simulates one policy instance
	// per shard concurrently, merging the per-shard results into a Result
	// bit-identical to the unsharded run. 0 or 1 selects the classic
	// single-population engine. Shards > 1 requires the policy to implement
	// ShardedPolicy or CapacityPolicy (which cannot shard and runs the
	// single-population engine regardless, see capacity.go); anything else
	// refuses with an error wrapping ErrNotShardable.
	Shards int

	// Workers caps how many simulations (policy runs in RunAll, shard runs
	// under Shards > 1 — the two share one budget) execute concurrently.
	// 0 means one per available core. Each sharded worker may additionally
	// run ONE overlapped shard production (the pipelined prefetch), so a
	// streamed run holds at most two shards' event series per worker.
	Workers int

	// Source, when non-nil, replaces the materialized train/sim trace pair:
	// Run and RunAll ignore their trace arguments and stream per-shard views
	// from it (sugar for RunStreamed). Shard views are produced inside the
	// worker that simulates them, so peak residency is O(n/P) event series
	// per in-flight worker. The policy must implement ShardedPolicy, or
	// CapacityPolicy — which runs over the whole population reassembled from
	// the source's shards, so the O(n/P) bound does not apply to it.
	Source Source

	// Cache, when non-nil, memoizes per-shard outcomes across sharded runs:
	// a shard whose (policy name, config hash, trace fingerprint, slot
	// count) key was simulated before is served from the cache instead of
	// re-run, making parameter sweeps incremental and restartable — only
	// shards whose policy config changed re-simulate. Requires the policy
	// to implement ConfigHasher and the source to provide shard
	// fingerprints; runs that don't qualify silently bypass the cache.
	// Merged results are bit-identical either way.
	Cache *ShardCache

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

	// Retry bounds the sharded engine's per-shard failure handling: a shard
	// whose worker panics or returns a transient error (sim.IsTransient) is
	// re-produced and re-simulated with capped exponential backoff, up to
	// Retry.MaxAttempts times, before surfacing a ShardError. Deterministic
	// errors surface on the first attempt. The zero value takes the
	// defaults; re-running a shard is always safe because shard simulation
	// is pure (fresh policy instance, read-only views).
	Retry RetryPolicy

	// Stop, when non-nil, requests a graceful cancellation when closed: the
	// sharded engine starts no new shard work, drains the shards already in
	// flight (their outcomes are cached as usual), and returns an error
	// wrapping ErrInterrupted. Rerunning with the same options resumes
	// from the completed units' cache entries. It is polled
	// between shards only: a single-population run in progress is not
	// interruptible.
	Stop <-chan struct{}

	// FaultHook, when non-nil, is called at the shard-worker boundary
	// immediately before each shard simulation attempt. It exists for
	// deterministic fault injection (internal/faultinject): the hook may
	// sleep or panic, and the isolation layer must absorb both. Production
	// code leaves it nil.
	FaultHook ShardFaultHook

	// pool is the shared worker budget. RunAll seeds it so that policies x
	// shards never exceed Workers concurrent simulations; runSharded creates
	// one for direct sharded Run calls. Tokens are only ever held by leaf
	// simulation loops, never by coordinators, so the budget cannot
	// deadlock.
	pool chan struct{}

	// shards is the partition and shard views shared across one RunAll
	// invocation's policies, so P-way sharding of an n-function trace costs
	// one partition and P slot indexes total instead of per policy.
	shardSet *shardSet
}

// workers resolves the effective worker budget.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// stopped reports whether a graceful cancellation was requested. It is
// polled between shards, never mid-simulation, so in-flight shards drain
// (and their outcomes persist) before the run returns.
func (o Options) stopped() bool {
	select {
	case <-o.Stop: // a nil Stop never becomes ready
		return true
	default:
		return false
	}
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
// read-only and each view's memoized slot index is mutex-guarded. It is the
// materialized-trace implementation of Source (all views exist up front, so
// Shard just hands them out) and of SourceFingerprint (content hash of each
// shard's series and metadata, computed once per set).
type shardSet struct {
	sim   []*trace.ShardView
	train []*trace.ShardView // nil when there is no training trace

	functions int
	slots     int

	fps    []uint64
	fpOnce []sync.Once
}

// buildShardSet partitions the population once and materializes the P
// train/sim shard views.
func buildShardSet(training, simTrace *trace.Trace, p int) *shardSet {
	part := trace.PartitionFunctions(simTrace.Functions, p)
	ss := &shardSet{
		sim:       make([]*trace.ShardView, p),
		functions: simTrace.NumFunctions(),
		slots:     simTrace.Slots,
		fps:       make([]uint64, p),
		fpOnce:    make([]sync.Once, p),
	}
	if training != nil {
		ss.train = make([]*trace.ShardView, p)
	}
	for i := 0; i < p; i++ {
		ss.sim[i] = simTrace.ShardBy(part, i)
		if training != nil {
			ss.train[i] = training.ShardBy(part, i)
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

// ShardFingerprint implements SourceFingerprint: a domain-tagged hash of
// shard i's sim view content hash, its train view's and whether it has one
// (trace.ShardView.ContentHash; Global is part of both, so two shards with
// equal local content at different global placements never collide),
// memoized so sweeps sharing one shardSet hash each shard once.
func (ss *shardSet) ShardFingerprint(i int) (uint64, bool) {
	ss.fpOnce[i].Do(func() {
		key := struct {
			Domain     string
			Sim, Train uint64
			HasTrain   bool
		}{Domain: "trace-content", Sim: ss.sim[i].ContentHash(), HasTrain: ss.train != nil}
		if ss.train != nil {
			key.Train = ss.train[i].ContentHash()
		}
		ss.fps[i] = HashConfig(key)
	})
	return ss.fps[i], true
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
// function population (same FuncID space). Options.Shards > 1 runs the
// sharded engine instead: one policy instance per population shard,
// concurrently, with a deterministic merge.
//
// Failure contract (see DESIGN.md "Failure semantics"): a partial merge
// would be a wrong answer, so Run returns a nil Result on any failure —
// but under the sharded engine a failing (or panicking) shard no longer
// aborts the siblings: every shard runs to its own verdict, transient
// failures retry per Options.Retry, and the returned error is an
// errors.Join of one structured ShardError per shard that still failed
// (unpack with errors.As). Completed shards' outcomes persist in the
// attached cache, so a rerun resumes rather than starting over.
// A run cancelled via Options.Stop returns an error wrapping
// ErrInterrupted after draining in-flight shards.
func Run(policy Policy, training, simTrace *trace.Trace, opts Options) (*Result, error) {
	if opts.Source != nil {
		return RunStreamed(policy, opts.Source, opts)
	}
	if simTrace == nil {
		return nil, fmt.Errorf("sim: nil simulation trace")
	}
	if training != nil && training.NumFunctions() != simTrace.NumFunctions() {
		return nil, fmt.Errorf("sim: training has %d functions, simulation %d",
			training.NumFunctions(), simTrace.NumFunctions())
	}
	if opts.Shards > 1 {
		return runSharded(policy, training, simTrace, opts)
	}
	return runOne(policy, training, simTrace, opts, nil)
}

// runOne is the single-population simulation loop: the batch driver of the
// event-stream Driver. It feeds the Driver only the occupied slots of the
// trace's slot index — the Driver advances the invocation-free gaps itself
// (batch-charging provably idle spans, slot-by-slot ticks otherwise), which
// is the exact arithmetic the loop used to do eagerly. When log is non-nil
// the per-slot (loaded, active) counts are recorded for the sharded merge.
// When opts.pool is non-nil the whole run holds one worker token, bounding
// how many simulations execute at once.
func runOne(policy Policy, training, simTrace *trace.Trace, opts Options, log *slotLog) (*Result, error) {
	if opts.pool != nil {
		opts.pool <- struct{}{}
		defer func() { <-opts.pool }()
	}
	if training != nil {
		policy.Train(training)
	}

	idx := simTrace.BuildSlotIndex()
	cfg := DriverConfig{
		MeasureOverhead: opts.MeasureOverhead,
		log:             log,
	}
	if opts.RetrainEvery > 0 {
		if _, ok := policy.(Retrainer); ok {
			cfg.RetrainEvery = opts.RetrainEvery
			cfg.RetrainWindow = opts.retrainEffectiveWindow(training)
			var wb WindowBuilder // one arena for every boundary of the run
			cfg.Window = func(t, w int) *trace.Trace {
				return wb.Build(training, simTrace, t, w)
			}
		}
	}
	d := NewDriver(policy, simTrace.NumFunctions(), cfg)

	for t := 0; t < simTrace.Slots; t++ {
		invs := idx.Invocations[t]
		if len(invs) == 0 {
			continue // the Driver advances the gap at the next occupied Step
		}
		if _, err := d.Step(t, invs); err != nil {
			return nil, err
		}
	}
	return d.Close(simTrace.Slots), nil
}

// RunStreamed simulates the policy over a Source: the sharded engine with
// the shard as the unit of residency. Each worker produces its shard's
// train/sim views (src.Shard) while holding a worker token, simulates them
// — prefetching its next shard's views concurrently — and drops the series
// before taking the next shard, so peak memory is at most two shards'
// O(n/P) event series per in-flight worker plus the O(n) merged result —
// never the full trace. The merge is identical to the materialized sharded
// engine's, so results are bit-identical to Run over the equivalent trace
// pair (the equivalence tests assert it). The policy must implement
// ShardedPolicy, even for a single-shard source — or CapacityPolicy, which
// gives up the residency bound: it runs over the population reassembled
// from the source's shards (capacity.go).
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
// and runs the source-driven engine over the materialized views. A
// capacity-coupled policy cannot shard and runs over the pair as it is.
func runSharded(policy Policy, training, simTrace *trace.Trace, opts Options) (*Result, error) {
	if cp, ok := policy.(CapacityPolicy); ok {
		return runCapacity(cp, training, simTrace, nil, opts)
	}
	ss := opts.shardSet
	if ss == nil {
		ss = buildShardSet(training, simTrace, opts.Shards)
	}
	return runShardedSrc(policy, ss, opts)
}

// runShardedSrc simulates one fresh policy instance per source shard
// (concurrently, bounded by the worker budget) and merges the shard
// results. Shard views are produced by the worker that simulates them,
// inside its token hold — pipelined with the previous shard's simulation
// (see the worker loop below) — which is what bounds streamed residency;
// when a ShardCache is in play, a hit skips production and simulation
// entirely.
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
	if opts.MeasureOverhead {
		return nil, fmt.Errorf("sim: policy %s: Options.MeasureOverhead times an unsharded run; it cannot be combined with Options.Shards > 1 or a Source", policy.Name())
	}
	p := src.NumShards()
	slots := src.Slots()

	inner := opts
	inner.Shards = 0
	inner.shardSet = nil
	// Worker tokens are taken by the worker loops below, around simulation
	// plus one overlapped prefetch, so a streamed source never has more
	// than two shards resident per worker; runOne must not re-acquire.
	pool := opts.pool
	inner.pool = nil

	// Cache qualification: a fingerprintable source and a hashable policy
	// config.
	var (
		cache   = opts.Cache
		hasher  ConfigHasher
		fps     SourceFingerprint
		cfgHash uint64
	)
	if cache != nil {
		hasher, _ = policy.(ConfigHasher)
		fps, _ = src.(SourceFingerprint)
		if hasher != nil {
			// Online re-categorization changes a shard's outcome without
			// changing the policy's own config, so the retrain schedule is
			// folded into the key's config component (domain-tagged): a
			// retrain-enabled run can never hit a stale non-retrain entry,
			// and vice versa. Policies that ignore RetrainEvery (no
			// Retrainer) keep the plain hash — their results really are
			// identical either way.
			cfgHash = hasher.ConfigHash()
			if opts.RetrainEvery > 0 {
				if _, ok := policy.(Retrainer); ok {
					cfgHash = HashConfig(struct {
						Domain        string
						Base          uint64
						RetrainEvery  int
						RetrainWindow int
					}{"retrain", cfgHash, opts.RetrainEvery, opts.RetrainWindow})
				}
			}
		}
	}

	results := make([]*Result, p)
	logs := make([]*slotLog, p)
	globals := make([][]trace.FuncID, p)
	errs := make([]error, p)
	started := make([]bool, p)

	// The shard run is split into two stages so workers can pipeline them:
	// produce (cache lookup — an entry file read — and, on a miss,
	// shard view production) and simulate. Producing shard i is independent
	// of every other shard, so a worker can overlap shard j's production
	// with shard i's simulation; simulation order and the merge stay
	// untouched, so the pipelining is invisible in the results.
	//
	// produce never lets a panic escape: a panicking source (or injected
	// fault) in the prefetch goroutine would otherwise kill the process
	// outside any recovery. The recovered panic rides producedShard.err
	// through the same classify/retry path as an error return.
	produce := func(i int) (ps producedShard) {
		defer func() {
			if v := recover(); v != nil {
				ps.err = &panicError{val: v}
			}
		}()
		if cache != nil && hasher != nil && fps != nil {
			if fp, ok := fps.ShardFingerprint(i); ok {
				ps.key = shardKey{
					policy: policy.Name(),
					config: cfgHash,
					trace:  fp,
					slots:  slots,
				}
				ps.cacheable = true
				if ent := cache.lookup(ps.key); ent != nil {
					ps.ent = ent
					return ps
				}
			}
		}
		ps.train, ps.sim, ps.err = src.Shard(i)
		return ps
	}
	// attempt runs one shard simulation attempt; retryShard contains its
	// panics.
	attempt := func(i, n int, ps producedShard) error {
		if ps.ent != nil {
			results[i], logs[i], globals[i] = ps.ent.res, ps.ent.log, ps.ent.global
			return nil
		}
		if ps.err != nil {
			return fmt.Errorf("producing shard: %w", ps.err)
		}
		if opts.FaultHook != nil {
			opts.FaultHook.BeforeShard(i, n)
		}
		globals[i] = ps.sim.Global
		logs[i] = &slotLog{
			loaded: make([]int32, 0, slots),
			active: make([]int32, 0, slots),
		}
		res, err := runOne(sp.NewShard(), tr(ps), ps.sim.Trace, inner, logs[i])
		if err != nil {
			return err
		}
		results[i] = res
		if ps.cacheable {
			cache.store(ps.key, &shardEntry{res: res, log: logs[i], global: globals[i]})
		}
		return nil
	}
	// simulate runs shard i inside the isolation boundary (retryShard) while
	// the other shards keep running.
	simulate := func(i int, ps producedShard) {
		started[i] = true
		errs[i] = opts.retryShard(policy.Name(), i, p, func(n int) error {
			if n > 1 {
				// Re-produce from scratch: the failed attempt's views (or
				// cache entry) are suspect, and a transient production fault
				// needs the production re-run too.
				ps = produce(i)
			}
			return attempt(i, n, ps)
		})
		if errs[i] != nil {
			results[i] = nil
		}
	}

	// Pipelined workers: shards are assigned round-robin to min(workers, p)
	// static workers. Each worker holds ONE token for its whole stride, and
	// while it simulates shard i it prefetches its NEXT assigned shard in a
	// helper goroutine — so shard i+S's generation (or disk restore) overlaps
	// shard i's simulation inside the token hold. Holding the token across
	// the stride (rather than per shard) is what makes "at most TWO shards'
	// event series per in-flight worker" a real bound: a worker that released
	// between shards would sit in the token queue with its prefetched shard
	// resident but untokened, and a RunAll sharing the pool across policies
	// could then exceed the bound by a factor of the policy count.
	if pool == nil {
		pool = make(chan struct{}, opts.workers())
	}
	workers := cap(pool)
	if workers > p {
		workers = p
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool <- struct{}{}
			defer func() { <-pool }()
			var next chan producedShard
			for i := w; i < p; i += workers {
				var ps producedShard
				if next != nil {
					ps = <-next
					next = nil
				} else {
					if opts.stopped() {
						return
					}
					ps = produce(i)
				}
				if j := i + workers; j < p && !opts.stopped() {
					ch := make(chan producedShard, 1)
					next = ch
					go func(j int) { ch <- produce(j) }(j)
				}
				simulate(i, ps)
				if opts.stopped() {
					// Drain the prefetch (its goroutine must not leak a
					// send) but start nothing new.
					if next != nil {
						<-next
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Aggregate instead of aborting on the first failure: every failed
	// shard contributes its ShardError, and a cancelled run additionally
	// wraps ErrInterrupted. A partial merge would be a wrong Result, so any
	// failure means a nil Result — but the completed shards' outcomes are
	// already cached, which is what makes a rerun resume instead of
	// starting over.
	var joined []error
	interrupted := false
	for i, err := range errs {
		if err != nil {
			joined = append(joined, err)
		} else if !started[i] {
			interrupted = true
		}
	}
	if interrupted {
		joined = append([]error{fmt.Errorf("%w: %s stopped before all %d shards ran",
			ErrInterrupted, policy.Name(), p)}, joined...)
	}
	if len(joined) > 0 {
		return nil, errors.Join(joined...)
	}

	return mergeShardResults(policy.Name(), slots, src.NumFunctions(), globals, results, logs), nil
}

// tr extracts the produced shard's training trace (nil for policies without
// an offline phase).
func tr(ps producedShard) *trace.Trace {
	if ps.train != nil {
		return ps.train.Trace
	}
	return nil
}

// producedShard is the output of the produce stage of a pipelined shard
// run: either a cache entry (hit — nothing to simulate) or the train/sim
// views plus the key to store a fresh outcome under.
type producedShard struct {
	ent        *shardEntry
	train, sim *trace.ShardView
	key        shardKey
	cacheable  bool
	err        error
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
// state and the traces are only read), so they execute concurrently, one
// goroutine per policy. Concurrency is bounded by one shared worker budget
// (Options.Workers): with Options.Shards > 1, the policies' shard runs all
// draw from the same budget, so policies x shards never oversubscribes the
// machine. MeasureOverhead runs the policies one after another instead:
// per-Tick wall-clock timings taken while policies contend for cores would
// be meaningless.
//
// Failure contract (see DESIGN.md "Failure semantics"): one failing policy
// no longer aborts the others. RunAll always returns the full results slice
// — results[i] is nil exactly when policy i failed — together with an
// errors.Join of every per-policy error (each wrapping that policy's
// ShardErrors where applicable), or nil when everything succeeded. Callers
// that want the old all-or-nothing behaviour just check err != nil; callers
// that can use partial results filter the nils.
func RunAll(policies []Policy, training, simTrace *trace.Trace, opts Options) ([]*Result, error) {
	if opts.Source == nil && opts.Shards > 1 && simTrace != nil && opts.shardSet == nil &&
		(training == nil || training.NumFunctions() == simTrace.NumFunctions()) {
		// Partition once and share the shard views (and their memoized slot
		// indexes) across all policies, mirroring how the unsharded path
		// shares the one simTrace index.
		opts.shardSet = buildShardSet(training, simTrace, opts.Shards)
	}
	if opts.MeasureOverhead {
		results := make([]*Result, len(policies))
		var joined []error
		for i, p := range policies {
			r, err := Run(p, training, simTrace, opts)
			if err != nil {
				joined = append(joined, fmt.Errorf("sim: policy %s: %w", p.Name(), err))
				continue
			}
			results[i] = r
		}
		return results, errors.Join(joined...)
	}
	if opts.pool == nil {
		opts.pool = make(chan struct{}, opts.workers())
	}
	results := make([]*Result, len(policies))
	errs := make([]error, len(policies))
	var wg sync.WaitGroup
	for i, p := range policies {
		wg.Add(1)
		go func(i int, p Policy) {
			defer wg.Done()
			r, err := Run(p, training, simTrace, opts)
			if err != nil {
				errs[i] = fmt.Errorf("sim: policy %s: %w", p.Name(), err)
				return
			}
			results[i] = r
		}(i, p)
	}
	wg.Wait()
	var joined []error
	for _, err := range errs {
		if err != nil {
			joined = append(joined, err)
		}
	}
	return results, errors.Join(joined...)
}
