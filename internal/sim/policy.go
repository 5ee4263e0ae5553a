// Package sim provides the minute-slotted provision simulator the paper's
// evaluation runs on, together with the Policy interface every scheduler
// (SPES and the baselines) implements and the metric accounting (cold-start
// rate, wasted memory time, effective memory consumption ratio, always-cold
// ratio, per-tick overhead).
//
// Simulation principles follow Section V-A of the paper and Shahrad et al.:
// one slot is one minute; every execution finishes within its slot; all
// cold starts cost the same; all instances consume one unit of memory; a
// single node holds every loaded instance.
//
// Every run steps the event-stream Driver (which the serving daemon also
// steps). Beyond the single-trace Run path, the package provides the sharded
// engine (Options.Shards — bit-identical deterministic merge), the
// streamed engine (RunStreamed over a Source — the shard as the unit of
// residency; trace.StoreSource and GeneratorSource both satisfy it),
// shard-outcome caching (ShardCache, DiskCache, keyed by config hash and
// trace fingerprint), the whole-population run capacity-coupled policies
// get under either engine (CapacityPolicy), and fault-tolerant sweep
// execution (Sweep over a DiskCache-backed ShardCache: the disk entries are
// what a killed sweep resumes from).
package sim

import "repro/internal/trace"

// Policy is a function-provision scheduler. The simulator drives it one slot
// at a time:
//
//  1. At the start of slot t the simulator inspects the policy's loaded set
//     to account cold starts: a function invoked at t that is not loaded is
//     a cold start (and is then loaded on demand to serve the request).
//  2. The simulator calls Tick(t, invocations) so the policy can observe
//     the slot's arrivals and re-provision: pre-load functions whose
//     predicted invocation is near, evict idle ones.
//  3. After Tick, the loaded set is charged for memory: every loaded
//     function counts one memory-unit-minute, and every loaded function
//     that was NOT invoked at t adds one minute of wasted memory time.
//
// Implementations must treat Tick as their only clock source; t increases
// monotonically between calls, starting at 0, and by exactly 1 unless the
// policy implements IdleSkipper: the simulator only ever skips a slot it
// proved empty — no invocations arrived and the policy reported no pending
// wake-up — so a skipped Tick(u, nil) would have been a no-op.
type Policy interface {
	// Name identifies the policy in reports ("SPES", "Defuse", ...).
	Name() string

	// Train lets the policy model historical invocations before the
	// simulation starts. Policies without an offline phase ignore it.
	Train(training *trace.Trace)

	// Tick observes slot t's invocations ((function, count) pairs, FuncID-
	// ascending, only invoked functions present) and updates the loaded set.
	Tick(t int, invocations []trace.FuncCount)

	// Loaded reports whether f is currently loaded. It reflects the state
	// after the most recent Tick.
	Loaded(f trace.FuncID) bool

	// LoadedCount returns the number of loaded functions (memory units).
	LoadedCount() int
}

// LoadDeltaTracker is implemented by policies that log loaded-set changes,
// letting the simulator attribute idle memory minutes from the log instead
// of re-scanning all n functions every slot (O(active) instead of O(n)). A
// policy without one is still accounted by deltas — the Driver derives them
// from that scan — but is never idle-skipped.
//
// The contract:
//   - TakeLoadDeltas returns every flip of the loaded set since the previous
//     call, in the order the flips happened, and resets the log. A function
//     appears once per flip, so one that was loaded and evicted inside the
//     same Tick appears twice; consumers reconstruct the state by toggling.
//   - The returned slice is only valid until the policy's next Tick (trackers
//     may reuse the backing array).
//   - ok=false (asked once, before slot 0) means tracking is unavailable
//     for this run; the simulator scans instead.
//
// The simulator establishes the post-Train baseline itself (one Loaded scan
// before slot 0) and discards any training-era deltas, so Train does not
// need to log.
type LoadDeltaTracker interface {
	TakeLoadDeltas() ([]trace.FuncID, bool)
}

// IdleSkipper is implemented by policies whose empty Ticks are provably
// no-ops, which lets the simulator batch-advance across invocation-free
// spans instead of ticking slot by slot.
//
// The contract:
//   - NextWake(after, limit) returns the earliest slot in (after, limit]
//     at which the policy has any pending action (a timer that may fire, an
//     eviction deadline), or -1 when it has none in that window. False
//     positives (a slot that turns out to be a no-op, e.g. an already-
//     cancelled timer) are allowed — they only cost a regular Tick. False
//     negatives are NOT: a missed wake-up would change the loaded set
//     without the simulator noticing.
//   - ok=false means the policy cannot answer yet (e.g. it was never
//     trained and has no timers to consult); the simulator ticks the next
//     slot and asks again.
//   - The simulator calls NextWake only after Tick(after, ...) has run, and
//     guarantees every slot in (after, wake) it skips had no invocations.
//     For each skipped slot the policy's loaded set is charged for memory
//     exactly as if Tick had run and changed nothing.
type IdleSkipper interface {
	NextWake(after, limit int) (int, bool)
}

// Retrainer is implemented by policies (SPES) that support periodic online
// re-categorization: when Options.RetrainEvery is set, the simulator calls
// Retrain at slot boundaries with a sliding window over the invocations
// observed so far, so the policy can refresh profiles that pattern drift,
// flash crowds, or function churn have made stale.
//
// The contract:
//   - window spans Options.RetrainWindow slots ending just before slot t,
//     re-based so window slot 0 is simulation slot t-W (slots before the
//     start of recorded history are simply empty). It shares the run's
//     Function metadata and must be treated as read-only.
//   - window and its series are borrowed until Retrain returns: the engine
//     builds every boundary's window into the same storage (WindowBuilder)
//     and overwrites it at the next boundary, so nothing may keep them.
//   - Retrain is called before slot t's invocations are observed (and
//     before its cold starts are accounted), so the window can never leak
//     slot t or anything later.
//   - Retrain MUST NOT change the loaded set: the simulator's delta
//     accounting mirrors loaded-set flips across Tick boundaries only, and
//     cold starts for slot t are charged against the pre-Tick loaded set.
//     Re-provisioning reacts from the next Tick on.
//   - Retrain must be deterministic given (t, window) and must not depend
//     on state outside the function population it was trained on — that is
//     what keeps per-shard retraining bit-identical to global retraining
//     (the window builder hands each shard exactly its own slice of
//     history, and categorization only couples functions sharing an app or
//     user, which the partition keeps together).
type Retrainer interface {
	Retrain(t int, window *trace.Trace)
}

// TypeTagger is implemented by policies (SPES) that assign each function a
// category; the per-type breakdowns of Figures 10 and 12 use it.
type TypeTagger interface {
	// TypeOf returns a stable category label for f ("regular", "unknown",
	// ...). Policies may refine labels during simulation (e.g. an unknown
	// function becoming "newly-possible").
	TypeOf(f trace.FuncID) string
}
