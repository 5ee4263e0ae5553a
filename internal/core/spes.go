package core

import (
	"repro/internal/classify"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// maxOnlineWTs bounds the per-function online WT history kept for the
// adjusting strategy; older samples age out FIFO.
const maxOnlineWTs = 64

// wheelSpan is the timing-wheel ring horizon in slots; deadlines further out
// (rare: long regular periods) go on the wheel's far chain.
const wheelSpan = 2048

// funcState holds the cold per-function state of Algorithm 1's FState
// record: the categorization profile and the adjusting strategy's online-WT
// history. The fields the Tick hot paths touch every slot — lastInvoked,
// eventSlot, seq, the loaded set, the cached type, preloadUntil, wtOff —
// live in SPES's parallel arrays (structure-of-arrays layout) instead, so
// draining a wheel bucket or replaying an invocation list walks tightly
// packed arrays rather than striding over this ~15-word record per
// function.
type funcState struct {
	profile classify.Profile

	// currentWT is the idle-slot count of Algorithm 1's FState. Only
	// DenseReference advances it — SPES derives the value from lastInvoked
	// and wtOff — but it stays a stored field, seeded by Train and Admit,
	// because the ST1 state blob serialises it.
	currentWT   int
	everTrained bool // invoked at least once in the training window

	// onlineWTs are the last maxOnlineWTs waiting times observed during
	// simulation (S1 of the adjusting strategy), stored as a ring once full:
	// wtHead indexes the oldest sample (0 until the ring wraps), so the
	// steady-state path overwrites in place with no copying. adjustedAt
	// counts how many samples had been consumed by the last adjustment so
	// each batch triggers at most one update. wtHist/wtBlock/wtOver/
	// wtDistinct mirror the same multiset as a counting histogram (see
	// adaptive.go) so the adjustment check reads order statistics without
	// sorting on the Tick hot path. The ring and the histogram share one
	// allocation, carved on the function's first recorded WT (carveWTs).
	onlineWTs  []int
	wtHead     int32
	adjustedAt int

	wtHist     []uint8 // counts of WT values < wtHistSize
	wtBlock    []uint8 // per-wtHistBlock sums over wtHist
	wtOver     []int   // ascending multiset of WT values >= wtHistSize
	wtDistinct int32   // distinct values currently in the multiset
}

// listener is the reverse edge of a correlated link: when the candidate
// fires, pre-load the target through lag+thetaPrewarm slots.
type listener struct {
	target trace.FuncID
	lag    int32
}

// provision is Algorithm 1's state and predicates — what the event-driven
// engine (SPES) and the per-slot reference (DenseReference) share, so the
// two can only differ in WHEN they evaluate a function, never in what they
// decide. It implements the engine-independent part of sim.Policy plus
// sim.TypeTagger and sim.LoadDeltaTracker (the loaded set and its flip log
// are the embedded sim.LoadedSet); Tick, and everything that makes a policy
// shardable, skippable or snapshottable, belongs to SPES.
type provision struct {
	sim.LoadedSet // MemSet

	cfg  Config
	pred predict.Predictor

	// cat keeps the categorization worker scratch from Train through every
	// Retrain, so a retrain boundary reuses what the last pass grew.
	cat classify.Categorizer

	meta   []trace.Function
	states []funcState // cold per-function state (profiles, online-WT history)

	// Hot per-function state in structure-of-arrays layout, all indexed by
	// FuncID. Tick's inner loops (invocation replay, wheel drain, deadline
	// math) touch only these arrays, cutting cache misses at large n:
	lastInvoked  []int32         // slot of the most recent invocation (sim timeline; negative from training)
	typ          []classify.Type // cached profile.Type (kept in sync on promotion/adjustment)
	preloadUntil []int32         // last slot (inclusive) of an indicator-driven pre-load, -1 inactive
	wtOff        []int8          // lazy-WT off-by-one: 1 until first-ever invocation, 0 afterwards

	// listeners maps a candidate function to the correlated targets it
	// pre-loads (offline links, reversed), densely indexed by FuncID.
	listeners [][]listener

	ucorr *onlineCorr

	// wtScratch is the reusable buffer chronoWTs unrolls a wrapped online-WT
	// ring into (Tick is single-threaded per policy).
	wtScratch [maxOnlineWTs]int

	// thetaGivenupByType caches cfg.Classify.ThetaGivenup per category:
	// the lookup sits inside evictionFloor on the Tick hot path, and calling
	// the Config method there would copy the whole struct every time.
	thetaGivenupByType [classify.NumTypes]int

	trainSlots int
}

// SPES is the differentiated provision policy on its event-driven engine:
// a timing wheel holds every function's next actionable deadline and Tick
// touches only the slot's invoked functions plus those whose deadline is
// due. It implements sim.Policy, sim.TypeTagger, sim.LoadDeltaTracker,
// sim.IdleSkipper, sim.Retrainer, sim.ConfigHasher and sim.ShardedPolicy.
type SPES struct {
	provision

	eventSlot []int32 // slot of each function's single outstanding wheel deadline, -1 when none

	// seq counts, per function, the pending deadlines that were replaced by
	// an earlier one. Nothing reads it: it is a column of the ST1 state blob,
	// kept so the blob's bytes do not move.
	seq []uint32

	// wheel holds every idle function's next actionable deadline (eviction,
	// pre-load expiry, predicted pre-warm).
	wheel *sched.Wheel

	// lastTick is the most recent slot the engine processed; skipped slots
	// (callers driving Tick with gaps) have their deadlines drained in order
	// before the current slot is handled.
	lastTick int
}

func newProvision(cfg Config) provision {
	return provision{cfg: cfg, pred: predict.Predictor{PossibleRangeMax: cfg.PossibleRangeMax}}
}

// New creates an untrained SPES policy; call Train (or let sim.Run call it)
// before ticking.
func New(cfg Config) *SPES { return &SPES{provision: newProvision(cfg)} }

// Name implements sim.Policy.
func (s *provision) Name() string { return "SPES" }

// NewShard implements sim.ShardedPolicy: a fresh untrained instance with the
// same configuration, to be trained and ticked over one population shard.
// SPES keeps no state that crosses app/user boundaries (offline links and
// online correlation only couple functions sharing an application or user),
// so per-shard instances over a correlation-closed partition reproduce the
// global instance's decisions exactly.
func (s *SPES) NewShard() sim.Policy { return New(s.cfg) }

// ConfigHash implements sim.ConfigHasher: a content hash of the complete
// Config (sim.HashConfig walks every field reflectively). No engine reads
// it; it stays only because the benchmark asserts that its traced SPES
// forwards sim.ConfigHasher.
func (s *SPES) ConfigHash() uint64 { return sim.HashConfig(s.cfg) }

// alloc sizes the per-function state for n functions and resolves the
// per-type eviction patience; Train and RestoreState fill it in.
func (s *provision) alloc(n int) {
	s.states = make([]funcState, n)
	s.listeners = make([][]listener, n)
	s.lastInvoked = make([]int32, n)
	s.Reset(n)
	s.typ = make([]classify.Type, n)
	s.preloadUntil = make([]int32, n)
	s.wtOff = make([]int8, n)
	for typ := classify.Type(0); typ < classify.NumTypes; typ++ {
		s.thetaGivenupByType[typ] = s.cfg.Classify.ThetaGivenup(typ)
	}
}

// train runs the offline phase: categorize every function from its training
// history, build the correlated-link reverse index, seed per-function state
// (last invocation, current WT) so predictions straddle the train/sim
// boundary, and register never-trained functions for online correlation.
func (s *provision) train(training *trace.Trace) {
	n := training.NumFunctions()
	s.meta = training.Functions
	s.trainSlots = training.Slots
	s.alloc(n)

	outcome := s.cat.Categorize(training, s.cfg.Classify,
		s.cfg.DisableCorrelation, s.cfg.DisableForgetting)

	for fid := 0; fid < n; fid++ {
		st := &s.states[fid]
		st.profile = outcome.Profiles[fid]
		s.typ[fid] = st.profile.Type
		s.preloadUntil[fid] = -1
		last := training.Series[fid].LastSlot()
		if last >= 0 {
			st.everTrained = true
			// Rebase onto the simulation timeline, where slot 0 is the
			// first simulated minute: a last training invocation at
			// trainSlots-1 becomes -1.
			s.lastInvoked[fid] = last - int32(training.Slots)
			st.currentWT = -int(s.lastInvoked[fid]) - 1
		} else {
			s.lastInvoked[fid] = int32(-training.Slots)
			st.currentWT = training.Slots
			s.wtOff[fid] = 1
		}
		s.listen(trace.FuncID(fid))

		// Carry end-of-training residency into the simulation: SPES would
		// have kept the function loaded if its idle time is still under the
		// eviction patience or a predicted invocation is imminent.
		if st.everTrained &&
			(st.profile.Type == classify.TypeAlwaysWarm ||
				st.currentWT < s.thetaGivenup(st.profile.Type) ||
				s.shouldPreload(trace.FuncID(fid), 0)) {
			s.Load(trace.FuncID(fid))
		}
	}

	if !s.cfg.DisableOnlineCorr {
		s.ucorr = newOnlineCorr(s.meta, s.cfg)
		for fid := 0; fid < n; fid++ {
			if !s.states[fid].everTrained {
				s.ucorr.register(trace.FuncID(fid))
			}
		}
	}
}

// listen adds fid's correlated links to the reverse index.
func (s *provision) listen(fid trace.FuncID) {
	for _, l := range s.states[fid].profile.Links {
		s.listeners[l.Cand] = append(s.listeners[l.Cand], listener{target: fid, lag: l.Lag})
	}
}

// Train implements sim.Policy: the offline phase, then one wheel deadline
// per function that has a transition ahead of it.
func (s *SPES) Train(training *trace.Trace) {
	s.train(training)
	s.eventSlot = make([]int32, len(s.states))
	s.seq = make([]uint32, len(s.states))
	s.wheel = sched.NewWheel(len(s.states), 1, wheelSpan)
	s.lastTick = -1
	for fid := range s.states {
		s.eventSlot[fid] = -1
		s.ensureWake(trace.FuncID(fid), -1)
	}
}

// TypeOf implements sim.TypeTagger.
func (s *provision) TypeOf(f trace.FuncID) string { return s.states[f].profile.Type.String() }

// retrain re-runs the offline categorization over window and swaps the
// fresh profiles, the cached types and the link reverse index in. Online-WT
// history, lastInvoked, the online-correlation candidate state and — per the
// sim.Retrainer contract — the loaded set all survive: they are
// observations, not conclusions.
func (s *provision) retrain(window *trace.Trace) {
	outcome := s.cat.Categorize(window, s.cfg.Classify,
		s.cfg.DisableCorrelation, s.cfg.DisableForgetting)
	for fid := range s.listeners {
		s.listeners[fid] = s.listeners[fid][:0]
	}
	for fid := range s.states {
		s.states[fid].profile = outcome.Profiles[fid]
		s.typ[fid] = outcome.Profiles[fid].Type
		s.listen(trace.FuncID(fid))
	}
}

// Retrain implements sim.Retrainer: re-run the offline categorization over
// a sliding window of observed history and swap the fresh profiles in, so
// the provision decisions from slot t on follow the drifted/churned
// behaviour instead of the stale training-time categorization. Functions
// with no events in the window downgrade to unknown — exactly the
// forgetting a retired function needs for its residency to be given up.
//
// Every timing-wheel deadline is then re-armed so the engine reacts to the
// new profiles on exactly the slots DenseReference would (a deadline that
// moved earlier is relinked; one that moved later fires early as a no-op
// and re-evaluates). s.lastTick is t-1 here (Retrain lands
// before Tick(t)), so re-armed deadlines start at slot t and drain inside
// the upcoming Tick — never late.
func (s *SPES) Retrain(t int, window *trace.Trace) {
	s.retrain(window)
	for fid := range s.states {
		s.ensureWake(trace.FuncID(fid), s.lastTick)
	}
}

// Tick implements Algorithm 1 for one slot, touching only the slot's invoked
// functions plus the functions whose scheduled deadline is t.
func (s *SPES) Tick(t int, invs []trace.FuncCount) {
	// Callers may advance t with gaps — the simulator's batch-advance skips
	// slots with no invocations and no deadlines, and ad-hoc unit drivers do
	// as they please — so drain the skipped slots' deadlines in order first.
	// NextOccupied jumps straight between occupied slots, so a skip over k
	// empty slots costs one capped ring scan instead of k bucket drains.
	if t > s.lastTick+1 {
		for u := s.wheel.NextOccupied(s.lastTick, t-1); u >= 0; u = s.wheel.NextOccupied(u, t-1) {
			s.drainSlot(u)
		}
	}
	s.lastTick = t

	// Lines 3-12 for the invoked functions: record the finished WT (the
	// per-slot loop's currentWT is t - lastInvoked - 1 here), reset, adapt,
	// load, and invalidate any pending deadline.
	for _, fc := range invs {
		fid := fc.Func
		last := int(s.lastInvoked[fid])
		if wt := t - last - 1; wt > 0 && last > -s.trainSlots {
			s.recordOnlineWT(fid, wt)
		}
		s.lastInvoked[fid] = int32(t)
		s.wtOff[fid] = 0
		s.preloadUntil[fid] = -1
		s.Load(fid)
		s.ensureWake(fid, t)
	}

	// Lines 13-20 for the functions whose deadline is t: the idle step is
	// evaluated exactly as the dense loop would, so a stale-but-valid
	// wake-up is at worst a no-op.
	s.drainSlot(t)

	// Indicator-driven pre-loading: offline correlated links and online
	// correlation for unseen functions (line 22, UCorr.update()).
	for _, fc := range invs {
		for _, l := range s.listeners[fc.Func] {
			s.preloadThrough(l.target, t, t+int(l.lag)+s.cfg.Classify.ThetaPrewarm)
		}
	}
	if s.ucorr != nil {
		s.ucorr.observe(t, invs, s)
	}
}

// drainSlot fires the deadlines scheduled at slot t.
func (s *SPES) drainSlot(t int) {
	s.wheel.Drain(t, func(owner, _ int) {
		s.eventSlot[owner] = -1
		s.idleStep(trace.FuncID(owner), t)
	})
}

// NextWake implements sim.IdleSkipper: the earliest slot in (after, limit]
// holding a scheduled deadline, -1 when there is none.
func (s *SPES) NextWake(after, limit int) (int, bool) {
	return s.wheel.NextOccupied(after, limit), true
}

// idleStep evaluates the dense loop's per-slot idle branch (lines 13-20) for
// one function at slot t, then schedules its next wake-up. For predictive
// types the pre-load decision and the next deadline come out of a single
// window enumeration (PrewarmWindowScan) instead of separate ShouldPrewarm /
// NextPrewarmOn / NextPrewarmOff passes — this path runs once per active
// function per slot and dominates the drain cost.
func (s *SPES) idleStep(fid trace.FuncID, t int) {
	switch s.typ[fid] {
	case classify.TypeRegular, classify.TypeApproRegular, classify.TypeDense,
		classify.TypePossible, classify.TypeNewlyPossible:
		profile := &s.states[fid].profile
		theta := s.cfg.Classify.ThetaPrewarm
		lastInv := int(s.lastInvoked[fid])
		off, on := s.pred.PrewarmWindowScan(profile, lastInv, t, theta)
		covered := off > t // ShouldPrewarm(t)
		if covered || t <= int(s.preloadUntil[fid]) {
			s.Load(fid)
		} else if s.Loaded(fid) && t-lastInv+int(s.wtOff[fid]) >= s.thetaGivenup(s.typ[fid]) {
			s.Unload(fid)
		}
		var next int
		if s.Loaded(fid) {
			floor := s.evictionFloor(fid, t)
			switch {
			case floor != t+1:
				next = floor
			case covered:
				// While t is covered, off is also the first uncovered slot
				// at or past the floor: NextPrewarmOff(t+1) == off.
				next = off
			case on == t+1:
				// A window opening right at the floor keeps the function
				// warm; chase its end (rare).
				next = s.pred.NextPrewarmOff(profile, lastInv, t+1, theta)
			default:
				next = floor
			}
		} else {
			next = on // NextPrewarmOn(t+1)
		}
		s.scheduleWake(fid, t, next)
	default:
		if s.shouldPreload(fid, t) {
			s.Load(fid)
		} else if s.Loaded(fid) && t-int(s.lastInvoked[fid])+int(s.wtOff[fid]) >= s.thetaGivenup(s.typ[fid]) {
			s.Unload(fid)
		}
		s.ensureWake(fid, t)
	}
}

// preloadThrough extends a function's indicator-driven pre-load window
// through the until slot (inclusive) and loads it. Offline links and the
// online-correlation strategy both funnel through here.
func (s *provision) preloadThrough(fid trace.FuncID, _, until int) {
	if int32(until) > s.preloadUntil[fid] {
		s.preloadUntil[fid] = int32(until)
	}
	s.Load(fid)
}

// preloadThrough additionally reschedules fid's deadline at slot t: the
// window may have pushed its eviction floor out.
func (s *SPES) preloadThrough(fid trace.FuncID, t, until int) {
	s.provision.preloadThrough(fid, t, until)
	s.ensureWake(fid, t)
}

// ensureWake makes sure fid's single outstanding wheel event fires no later
// than its next possible state transition after slot t (t is -1 at train
// time). A pending event at or before the target slot is kept — it fires
// early, re-evaluates the exact idle-step predicate, and reschedules — so
// the hot path (an invocation extending a resident function's deadline)
// costs no wheel operations at all. Only a deadline that moved earlier
// unlinks the pending event and links it anew.
func (s *SPES) ensureWake(fid trace.FuncID, t int) {
	// Fast path: the next transition can never be earlier than t+1, so a
	// pending event at or before t+1 already satisfies the never-late
	// invariant — skip the deadline math entirely. This is the common case
	// for busy functions, whose eviction floor sits one slot ahead of every
	// invocation.
	if ev := s.eventSlot[fid]; ev >= 0 && int(ev) <= t+1 {
		return
	}
	// Inlined nextWake with one extra short-circuit: for loaded functions
	// every candidate deadline is at or past the eviction floor, so a
	// pending event at or before the floor (cheap to compute — no window
	// enumeration) is always kept, sparing the predictor scan.
	switch s.typ[fid] {
	case classify.TypeAlwaysWarm:
		if !s.Loaded(fid) {
			s.scheduleWake(fid, t, t+1)
		}
		return
	case classify.TypeCorrelated, classify.TypeSuccessive, classify.TypePulsed,
		classify.TypeUnknown:
		if !s.Loaded(fid) {
			return
		}
		s.scheduleWake(fid, t, s.evictionFloor(fid, t))
	default:
		theta := s.cfg.Classify.ThetaPrewarm
		profile := &s.states[fid].profile
		if !s.Loaded(fid) {
			s.scheduleWake(fid, t,
				s.pred.NextPrewarmOn(profile, int(s.lastInvoked[fid]), t+1, theta))
			return
		}
		floor := s.evictionFloor(fid, t)
		if ev := s.eventSlot[fid]; ev >= 0 && int(ev) <= floor {
			return
		}
		next := floor
		if floor == t+1 {
			// NextPrewarmOff(floor) returns floor itself when no window
			// covers it, so this one call answers both "is a pre-warm window
			// holding the function warm at the floor?" and "until when?".
			next = s.pred.NextPrewarmOff(profile, int(s.lastInvoked[fid]), floor, theta)
		}
		s.scheduleWake(fid, t, next)
	}
}

// scheduleWake arms fid's single outstanding wheel event for slot next
// (no-op when next is -1 or a pending event already fires at or before it).
func (s *SPES) scheduleWake(fid trace.FuncID, t, next int) {
	if next < 0 {
		// No future self-transition; any pending event fires as a no-op.
		return
	}
	if ev := s.eventSlot[fid]; ev >= 0 {
		if int(ev) <= next {
			return
		}
		s.seq[fid]++
		s.wheel.Cancel(int(fid))
	}
	s.eventSlot[fid] = int32(next)
	s.wheel.Schedule(t, next, int(fid), 0)
}

// The deadline invariants ensureWake and idleStep rely on:
//   - wt(tau) = tau - lastInvoked + wtOff is the value the dense loop's
//     incremental currentWT would hold at an idle slot tau, so the eviction
//     floor needs no per-slot bookkeeping.
//   - While a function is unloaded, tau <= preloadUntil cannot hold: pre-load
//     windows are only ever set in the same slot the function is loaded, and
//     eviction requires the window to have expired.
//   - Pre-warm windows move only when lastInvoked or the profile change,
//     both of which happen at invocations, which re-arm the wake-up.
//   - Always-warm functions, once resident, have nothing left to schedule;
//     if somehow unloaded, the next slot re-loads them. Types without
//     time-based predictions (correlated, successive, pulsed, unknown) have
//     no self-transition while unloaded.

// evictionFloor returns the first slot after t at which the idle patience
// has run out and no indicator pre-load is active — the earliest slot the
// dense loop could evict the function, ignoring pre-warm windows.
func (s *SPES) evictionFloor(fid trace.FuncID, t int) int {
	tau := int(s.lastInvoked[fid]) + s.thetaGivenup(s.typ[fid]) - int(s.wtOff[fid])
	if p := int(s.preloadUntil[fid]) + 1; p > tau {
		tau = p
	}
	if tau <= t {
		tau = t + 1
	}
	return tau
}

// shouldPreload evaluates line 15's pre_load flag for an idle function.
func (s *provision) shouldPreload(fid trace.FuncID, t int) bool {
	switch s.typ[fid] {
	case classify.TypeAlwaysWarm:
		// Undoubtedly always loaded.
		return true
	case classify.TypeCorrelated:
		return t <= int(s.preloadUntil[fid])
	case classify.TypeSuccessive, classify.TypePulsed:
		// Tolerate the first cold start of a wave; never predict-preload.
		return t <= int(s.preloadUntil[fid]) // preloadUntil is -1 unless online corr touched it
	case classify.TypeUnknown:
		return t <= int(s.preloadUntil[fid]) // online correlation may pre-load unseen functions
	default:
		if t <= int(s.preloadUntil[fid]) {
			return true
		}
		return s.pred.ShouldPrewarm(&s.states[fid].profile, int(s.lastInvoked[fid]), t,
			s.cfg.Classify.ThetaPrewarm)
	}
}

func (s *provision) thetaGivenup(typ classify.Type) int {
	return s.thetaGivenupByType[typ]
}
