package sim

import (
	"fmt"

	"repro/internal/trace"
)

// Cross-shard capacity arbitration: the sharded engine for policies whose
// only global coupling is a shared memory budget (FaaSCache's GDSF cache,
// LCS's LRU warm pool). Such a policy cannot run as P fully independent
// shard instances — an eviction decision compares every loaded function
// against every other — but it CAN run as P shard-local scorers plus one
// global arbiter, because its per-function score (GDSF priority, LRU
// recency) depends only on that function's own history:
//
//   1. At each occupied slot, every shard ticks its local population
//      WITHOUT evicting — it only updates scores and admits invoked
//      functions to its loaded set.
//   2. The arbiter then k-way-merges the shards' local victim candidates
//      (each shard exposes its minimum-score loaded function) against the
//      single global budget, popping the globally lowest victim — ties on
//      score broken by ascending global FuncID — until the total loaded
//      count fits. Victims are evicted inside their owning shard, so the
//      shard's delta log and residency accounting see them like any other
//      eviction.
//   3. Shared global state (the GDSF clock ratchet) is updated by the
//      arbiter from the victims it popped and broadcast back to the shards
//      (ClockCoupled) before the next slot.
//
// This reproduces the unsharded run bit for bit provided the unsharded
// policy's own eviction order is the same total order the arbiter uses —
// score first, FuncID tie-break — which is exactly the contract
// CapacityShard demands. Slots with no invocations in ANY shard need no
// barrier: a capacity policy's state only changes on invocations (their
// NextWake contract), an empty slot cannot push the pool over budget, so
// the per-shard Drivers batch-charge those gaps exactly as the unsharded
// engine does.
//
// The price of the barrier is residency: every shard's event series must be
// resident for the whole run (one worker token, sequential lockstep), so
// the streamed O(n/P) bound does not apply. Shard-outcome caching is
// unsound here — a shard's outcome depends on every other shard through the
// budget, so a per-shard (config, trace fingerprint) key does not determine
// it — and a ShardCache attached to a capacity run is refused explicitly
// (CapacityCacheError) rather than silently bypassed.

// CapacityPolicy is implemented by policies whose sharded execution needs
// global capacity arbitration. Capacity returns the global budget in
// instances; NewCapacityShard returns a fresh untrained shard-local scorer.
// A policy implementing both CapacityPolicy and ShardedPolicy runs under
// the capacity engine when Shards > 1 (the arbitrated protocol subsumes the
// independent one).
//
// The bit-equivalence contract: the unsharded policy must evict in exactly
// the total order the arbiter replays globally — ascending score, then
// ascending FuncID among equal scores — and its shard's scores must equal
// the unsharded scores for the same per-function history. Policies whose
// scores depend only on the function's own invocations (frequency, recency)
// satisfy the latter for free.
type CapacityPolicy interface {
	Policy

	// Capacity is the global loaded-instance budget the arbiter enforces.
	Capacity() int

	// NewCapacityShard returns a fresh untrained shard instance. The
	// simulator trains and ticks it over a single shard's trace view.
	NewCapacityShard() CapacityShard
}

// CapacityShard is a shard-local scorer driven by the capacity engine. Its
// Train and Tick must NOT evict — they only update scores and admit
// functions to the loaded set; the arbiter owns the budget and calls
// EvictVictim across shards in global order.
type CapacityShard interface {
	Policy

	// PeekVictim returns the shard's current eviction candidate — the
	// loaded function with the minimum score, ties broken by ascending
	// (shard-local) FuncID — without evicting it. ok is false when nothing
	// is loaded. f is the shard-LOCAL FuncID; the engine maps it through
	// the shard view's Global slice. Local IDs preserve global order
	// (trace.ShardView), so a local-ID tie-break IS a global-ID tie-break
	// within the shard.
	PeekVictim() (score float64, f trace.FuncID, ok bool)

	// EvictVictim evicts the function PeekVictim reported, recording the
	// unload in the shard's load-delta log like any Tick eviction.
	EvictVictim()
}

// ClockCoupled is implemented by capacity shards that share aging state
// beyond the budget — FaaSCache's GDSF clock, which ratchets to each evicted
// priority. The arbiter tracks the clock globally (victims pop in ascending
// score order, so the ratchet is a running max over popped scores) and
// broadcasts it after every arbitration round that evicted, so slot t+1's
// scores use the same clock in every shard as in the unsharded run.
type ClockCoupled interface {
	SetClock(clock float64)
}

// CapacityCacheError is the structured refusal returned when a ShardCache
// is attached to a capacity-arbitrated run. It wraps ErrCapacityCoupled for
// errors.Is checks.
type CapacityCacheError struct {
	// Policy is the offending policy's Name().
	Policy string
}

func (e *CapacityCacheError) Error() string {
	return fmt.Sprintf("%v: policy %s evicts against a global budget, so a per-shard (config, trace) key does not determine a shard's outcome; run it without a ShardCache", ErrCapacityCoupled, e.Policy)
}

func (e *CapacityCacheError) Unwrap() error { return ErrCapacityCoupled }

// runCapacitySharded is the capacity-arbitrated sharded engine: P per-shard
// Drivers stepped in lockstep with a global eviction arbiter between each
// slot's Ticks and its accounting. The merge is mergeShardResults, the same
// deterministic fold the independent sharded engine uses.
func runCapacitySharded(cp CapacityPolicy, src Source, opts Options) (res *Result, err error) {
	// A panicking policy or source must not kill the process; the
	// independent engine contains panics per shard, this engine per run
	// (there is no per-shard isolation to retry within — every shard's
	// state depends on every other's through the arbiter).
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, fmt.Errorf("sim: policy %s capacity engine: %w", cp.Name(), &panicError{val: v})
		}
	}()

	if opts.Cache != nil {
		if verr := opts.Cache.vetPolicy(cp); verr != nil {
			return nil, verr
		}
	}
	if opts.RetrainEvery > 0 {
		if _, ok := Policy(cp).(Retrainer); ok {
			return nil, fmt.Errorf("sim: policy %s implements Retrainer, which the capacity-sharded engine does not support; run it with Options.Shards <= 1", cp.Name())
		}
	}
	budget := cp.Capacity()
	if budget <= 0 {
		return nil, fmt.Errorf("sim: policy %s reports capacity %d; the global budget must be positive", cp.Name(), budget)
	}

	results, logs, globals, err := runCapacityShards(cp, budget, src, opts)
	if err != nil {
		return nil, err
	}
	return mergeShardResults(cp.Name(), src.Slots(), src.NumFunctions(), globals, results, logs), nil
}

// runCapacityShards runs the lockstep loop and returns the per-shard pieces
// the merge folds; split from runCapacitySharded so the equivalence tests
// can compare the raw shard slot logs against an unsharded run's log.
func runCapacityShards(cp CapacityPolicy, budget int, src Source, opts Options) ([]*Result, []*slotLog, [][]trace.FuncID, error) {
	p := src.NumShards()
	slots := src.Slots()

	// The whole run holds ONE worker token: the lockstep barrier needs
	// every shard resident at every occupied slot, so capacity coupling
	// trades the streamed O(n/P) residency bound (and shard-level
	// concurrency) for exactness.
	if opts.pool != nil {
		opts.pool <- struct{}{}
		defer func() { <-opts.pool }()
	}
	stopped := func() bool {
		if opts.Stop == nil {
			return false
		}
		select {
		case <-opts.Stop:
			return true
		default:
			return false
		}
	}

	shards := make([]CapacityShard, p)
	coupled := make([]ClockCoupled, p)
	globals := make([][]trace.FuncID, p)
	logs := make([]*slotLog, p)
	idxs := make([]*trace.SlotIndex, p)
	ns := make([]int, p)
	trained := false
	for i := 0; i < p; i++ {
		if stopped() {
			return nil, nil, nil, fmt.Errorf("%w: %s stopped before all %d shards were produced",
				ErrInterrupted, cp.Name(), p)
		}
		train, simv, err := src.Shard(i)
		if err != nil {
			// Classified as the independent engine would, but never retried
			// (Options.Retry): the shards are coupled through the arbiter.
			panicked := isPanic(err)
			return nil, nil, nil, &ShardError{
				Policy: cp.Name(), Shard: i, Shards: p, Attempts: 1,
				Transient: panicked || IsTransient(err), Panicked: panicked,
				Err: fmt.Errorf("producing shard: %w", err),
			}
		}
		sh := cp.NewCapacityShard()
		if train != nil {
			sh.Train(train.Trace)
			trained = true
		}
		shards[i] = sh
		coupled[i], _ = sh.(ClockCoupled)
		globals[i] = simv.Global
		ns[i] = simv.Trace.NumFunctions()
		idxs[i] = simv.Trace.BuildSlotIndex()
		logs[i] = &slotLog{
			loaded: make([]int32, 0, slots),
			active: make([]int32, 0, slots),
		}
	}

	// Training overflow is arbitrated once, globally, BEFORE the Drivers
	// scan the post-Train loaded sets — the unsharded policy likewise
	// enforces capacity inside Train, so the simulation starts from the
	// identical pool.
	arb := &capacityArbiter{shards: shards, coupled: coupled, globals: globals, budget: budget}
	if trained {
		arb.arbitrate()
	}

	drivers := make([]*Driver, p)
	for i := range shards {
		drivers[i] = NewDriver(shards[i], ns[i], DriverConfig{
			MeasureOverhead: opts.MeasureOverhead,
			log:             logs[i],
		})
	}

	// A slot needs the barrier only when SOME shard has invocations: an
	// empty slot changes no score and admits nothing, so the pool cannot
	// exceed the budget and the arbiter would be a no-op. Globally empty
	// spans are batch-charged by each Driver's idle skip at its next
	// StepBegin (or Close), exactly like the unsharded engine.
	occupied := make([]bool, slots)
	for i := range idxs {
		for t := range occupied {
			if len(idxs[i].Invocations[t]) != 0 {
				occupied[t] = true
			}
		}
	}

	for t := 0; t < slots; t++ {
		if !occupied[t] {
			continue
		}
		if stopped() {
			// Mid-run state is coupled across shards; nothing partial is
			// worth keeping (and nothing was cached), so just surface the
			// interruption.
			return nil, nil, nil, fmt.Errorf("%w: %s stopped at slot %d of %d",
				ErrInterrupted, cp.Name(), t, slots)
		}
		// Phases 1-2 everywhere (cold starts against pre-Tick state, then
		// the local score-only Ticks), one global eviction round, then
		// phase 3 everywhere (accounting on the post-arbitration state).
		for i, d := range drivers {
			if err := d.StepBegin(t, idxs[i].Invocations[t]); err != nil {
				return nil, nil, nil, fmt.Errorf("sim: policy %s shard %d/%d: %w", cp.Name(), i, p, err)
			}
		}
		arb.arbitrate()
		for _, d := range drivers {
			d.FinishStep()
		}
	}

	results := make([]*Result, p)
	for i, d := range drivers {
		results[i] = d.Close(slots)
	}
	return results, logs, globals, nil
}

// capacityArbiter enforces the global budget across shard-local loaded
// sets. arbitrate pops the globally lowest victim — minimum (score, global
// FuncID) over the shards' PeekVictim candidates — until the pool fits,
// ratcheting the shared clock to each evicted score and broadcasting it to
// the ClockCoupled shards once per round. With P <= dozens a linear scan
// per victim beats a merge heap's bookkeeping.
type capacityArbiter struct {
	shards  []CapacityShard
	coupled []ClockCoupled // index-aligned with shards; nil when not clock-coupled
	globals [][]trace.FuncID
	budget  int
	clock   float64
}

func (a *capacityArbiter) arbitrate() {
	total := 0
	for _, sh := range a.shards {
		total += sh.LoadedCount()
	}
	evicted := false
	for total > a.budget {
		best := -1
		var bestScore float64
		var bestFid trace.FuncID
		for i, sh := range a.shards {
			score, lf, ok := sh.PeekVictim()
			if !ok {
				continue
			}
			gf := a.globals[i][lf]
			if best < 0 || score < bestScore || (score == bestScore && gf < bestFid) {
				best, bestScore, bestFid = i, score, gf
			}
		}
		if best < 0 {
			break // nothing loaded anywhere; cannot happen while total > 0
		}
		a.shards[best].EvictVictim()
		if bestScore > a.clock {
			a.clock = bestScore
		}
		evicted = true
		total--
	}
	if evicted {
		for _, c := range a.coupled {
			if c != nil {
				c.SetClock(a.clock)
			}
		}
	}
}
