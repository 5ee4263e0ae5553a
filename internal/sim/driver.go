package sim

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// Driver is the event-stream form of the simulation loop: it drives a
// trained Policy one slot at a time through the exact three-phase contract
// the batch simulator established (cold-start accounting against the
// pre-Tick loaded set, Tick, post-Tick memory/WMT/EMCR accounting), with
// retrain boundaries and the idle-skip batch charge handled internally.
//
// The batch engine (runOne) is one driver of it — it feeds the Driver the
// trace's slot index — and the serving daemon (internal/serve) is another,
// feeding it live invocation events over HTTP. That split is what divorces
// SIM TIME from WALL TIME: the Driver's clock is the slot number its caller
// passes to Step, never the wall clock, so a daemon ingesting events hours
// apart and a simulator replaying them back-to-back compute bit-identical
// policy states and metrics. Wall time is only ever read for the optional
// Overhead measurement, which annotates results without influencing them.
//
// Gap semantics: Step(t, invs) first advances the policy through every slot
// in (NextSlot()-1, t) as an invocation-free slot, exactly as the batch loop
// would — batch-charging provably idle spans when the policy is an
// IdleSkipper that logs its own deltas, ticking slot by slot otherwise, and
// never crossing a retrain boundary without processing it. A caller that
// only ever hears about occupied slots therefore reproduces the full
// per-slot run.
type Driver struct {
	policy Policy
	res    *Result
	log    *slotLog

	// All accounting is by load deltas: tracker reports each slot's flips
	// (the policy's own log, or a scanTracker for a policy that keeps none),
	// loaded mirrors the policy's loaded set as of the last report, and
	// loadedFrom/invokedLoaded hold each open residency's start slot and its
	// invoked-while-loaded slots, charged as idle minutes when it closes.
	tracker       LoadDeltaTracker
	loaded        []bool
	loadedFrom    []int32
	invokedLoaded []int32

	// skipper is set only for a policy that logs its own deltas: a scanned
	// one has no log to prove a span changed nothing.
	skipper IdleSkipper

	retrainer    Retrainer
	retrainEvery int
	retrainWin   int
	window       WindowFunc

	measureOverhead bool
	collectCold     bool
	cold            []trace.FuncID
	flips           []trace.FuncID

	next   int // next slot to process; NextSlot()
	closed bool
}

// WindowFunc builds the sliding-window trace handed to Retrainer.Retrain at
// boundary slot t (see the Retrainer contract): w slots of recorded history
// ending just before t, re-based so window slot 0 is slot t-w. The batch
// engine builds it from the train/sim trace pair, the serving daemon from
// its recorded live history, each through a WindowBuilder it owns. The
// window and its series are borrowed until Retrain returns: the engine
// overwrites them at the next boundary.
type WindowFunc func(t, w int) *trace.Trace

// BuildRetrainWindow builds one window on a fresh WindowBuilder, so the
// result owns its storage: w slots ending just before t, filled from
// recorded (the simulation-timeline history, slot 0 = simulation slot 0)
// and, for t < w, from the tail of training. Anything before recorded
// history is empty.
func BuildRetrainWindow(training, recorded *trace.Trace, t, w int) *trace.Trace {
	return new(WindowBuilder).Build(training, recorded, t, w)
}

// DriverConfig configures a Driver around an already-trained policy.
type DriverConfig struct {
	// MeasureOverhead wall-clock-times every Tick into Result.Overhead.
	// It disables the idle-skip batch charge so the overhead metric counts
	// every Tick the per-slot loop would have counted.
	MeasureOverhead bool

	// RetrainEvery/RetrainWindow/Window enable periodic online
	// re-categorization for policies implementing Retrainer: at every slot
	// t = k*RetrainEvery the driver calls Retrain(t, Window(t,
	// RetrainWindow)) before t's invocations are observed. RetrainWindow
	// must be resolved (positive) by the caller; all three must be set
	// together.
	RetrainEvery  int
	RetrainWindow int
	Window        WindowFunc

	// CollectCold makes Step report the slot's cold-started functions
	// (serving daemons turn them into decisions); off for batch runs, which
	// only need the counters.
	CollectCold bool

	// StartSlot is the first slot the driver will process (NextSlot). 0 for
	// a fresh run; a daemon restoring a snapshot taken after slot S passes
	// S+1.
	StartSlot int

	// log records per-slot (loaded, active) counts for the sharded merge.
	log *slotLog
}

// scanTracker is the LoadDeltaTracker of a policy that keeps no delta log:
// each report is one O(n) Loaded scan against the Driver's mirror, which
// holds the state as of the previous report. It sees a slot's net flips
// only, which is all the accounting reads: a function loaded and evicted
// inside one Tick was never resident at a slot boundary.
type scanTracker struct {
	d     *Driver
	flips []trace.FuncID
}

func (s *scanTracker) TakeLoadDeltas() ([]trace.FuncID, bool) {
	s.flips = s.flips[:0]
	for fid, was := range s.d.loaded {
		if s.d.policy.Loaded(trace.FuncID(fid)) != was {
			s.flips = append(s.flips, trace.FuncID(fid))
		}
	}
	return s.flips, true
}

// NewDriver wraps a trained policy. The post-Train loaded set is scanned
// once to seed the delta mirror (training-era deltas are discarded by the
// probe call), matching the batch engine's baseline exactly. This is the one
// place that asks whether the policy logs its own deltas: one that does not
// (or reports ok=false) is accounted through a scanTracker and pays its O(n)
// scan per ticked slot.
func NewDriver(policy Policy, n int, cfg DriverConfig) *Driver {
	d := &Driver{
		policy:          policy,
		res:             &Result{Policy: policy.Name(), Functions: n, PerFunc: make([]FuncMetrics, n)},
		log:             cfg.log,
		measureOverhead: cfg.MeasureOverhead,
		collectCold:     cfg.CollectCold,
		next:            cfg.StartSlot,
		loaded:          make([]bool, n),
		loadedFrom:      make([]int32, n),
		invokedLoaded:   make([]int32, n),
	}
	for fid := 0; fid < n; fid++ {
		if policy.Loaded(trace.FuncID(fid)) {
			d.loaded[fid] = true
			d.loadedFrom[fid] = int32(cfg.StartSlot)
		}
	}
	if tr, ok := policy.(LoadDeltaTracker); ok {
		if _, ok := tr.TakeLoadDeltas(); ok {
			d.tracker = tr
			if s, ok := policy.(IdleSkipper); ok && !cfg.MeasureOverhead {
				d.skipper = s
			}
		}
	}
	if d.tracker == nil {
		d.tracker = &scanTracker{d: d}
	}
	if cfg.RetrainEvery > 0 && cfg.Window != nil {
		if r, ok := policy.(Retrainer); ok {
			d.retrainer = r
			d.retrainEvery = cfg.RetrainEvery
			d.retrainWin = cfg.RetrainWindow
			d.window = cfg.Window
		}
	}
	return d
}

// NextSlot returns the next slot Step will accept.
func (d *Driver) NextSlot() int { return d.next }

// Loaded reports the policy's current loaded state for f (post most recent
// Step).
func (d *Driver) Loaded(f trace.FuncID) bool { return d.policy.Loaded(f) }

// StepInfo is one processed slot's outcome, the raw material of a serving
// daemon's decisions. Cold and Flips alias driver-owned buffers valid only
// until the next Step.
type StepInfo struct {
	// Cold lists the functions invoked this slot that were not loaded
	// (each suffered a cold start), FuncID-ascending. Only populated under
	// DriverConfig.CollectCold.
	Cold []trace.FuncID
	// Flips lists every loaded-set flip the slot's Tick performed, in flip
	// order (a load immediately followed by an evict appears twice);
	// toggling reconstructs the pre-warm/evict decisions. A policy that logs
	// no deltas reports the slot's net flips instead, FuncID-ascending.
	Flips []trace.FuncID
	// Loaded is the post-Tick loaded count (memory units).
	Loaded int
}

// Step processes slot t's invocations (FuncID-ascending, only invoked
// functions present — the SlotIndex shape). t must be at least NextSlot();
// slots in between are advanced as invocation-free. It returns the slot's
// outcome for decision-emitting callers.
func (d *Driver) Step(t int, invs []trace.FuncCount) (StepInfo, error) {
	if d.closed {
		return StepInfo{}, fmt.Errorf("sim: Step(%d) on a closed driver", t)
	}
	if t < d.next {
		return StepInfo{}, fmt.Errorf("sim: Step slot %d is behind the stream (next is %d): slots are monotonic", t, d.next)
	}
	d.advanceTo(t)
	d.slot(t, invs)
	d.next = t + 1
	return StepInfo{Cold: d.cold, Flips: d.flips, Loaded: d.policy.LoadedCount()}, nil
}

// advanceTo processes every slot in [next, t) as invocation-free: ticking
// slot by slot when the policy cannot prove empties are no-ops, and
// otherwise batch-charging spans with no pending wake-up — never across a
// retrain boundary, whose slot must run its Retrain + Tick even if empty.
func (d *Driver) advanceTo(t int) {
	for d.next < t {
		u := d.next
		if d.skipper == nil {
			d.slot(u, nil)
			d.next = u + 1
			continue
		}
		limit := t - 1
		if d.retrainer != nil {
			if b := ((u-1)/d.retrainEvery+1)*d.retrainEvery - 1; b < limit {
				limit = b
			}
		}
		if limit < u {
			// u itself is the last slot before a boundary — or the boundary
			// slot; either way no span to skip.
			d.slot(u, nil)
			d.next = u + 1
			continue
		}
		// NextWake's contract wants `after` to be a slot the policy ticked;
		// u-1 always is (slot() ran there, or it is StartSlot-1, the
		// train/restore baseline).
		wake, ok := d.skipper.NextWake(u-1, limit)
		if !ok {
			d.slot(u, nil)
			d.next = u + 1
			continue
		}
		end := limit
		if wake >= 0 {
			end = wake - 1
		}
		if end >= u {
			d.chargeSpan(u, end)
			d.next = end + 1
		}
		if wake >= 0 {
			d.slot(wake, nil)
			d.next = wake + 1
		}
	}
}

// chargeSpan accounts the invocation-free, wake-free slots u..end (inclusive)
// in one step, exactly as changing-nothing Ticks would: loadedCount memory
// units per slot, all idle, EMCR term 0/loadedCount. Per-function idle
// minutes need no work — whole residency intervals are charged at unload
// time, and skipped slots just extend them.
func (d *Driver) chargeSpan(u, end int) {
	span := int64(end - u + 1)
	loadedCount := d.policy.LoadedCount()
	lc := int64(loadedCount)
	d.res.TotalMemory += span * lc
	d.res.TotalWMT += span * lc
	if loadedCount > 0 {
		d.res.EMCRSlots += span
	}
	if d.log != nil {
		for s := u; s <= end; s++ {
			d.log.loaded = append(d.log.loaded, int32(loadedCount))
			d.log.active = append(d.log.active, 0)
		}
	}
}

// slot runs the full three-phase contract for one slot.
func (d *Driver) slot(t int, invs []trace.FuncCount) {
	if d.retrainer != nil && t > 0 && t%d.retrainEvery == 0 {
		d.retrainer.Retrain(t, d.window(t, d.retrainWin))
	}

	// Phase 1: cold-start accounting against the pre-Tick loaded set. The
	// mirror equals policy.Loaded (Retrain may not move the loaded set) and
	// spares an interface call per invocation.
	if d.collectCold {
		d.cold = d.cold[:0]
	}
	for _, fc := range invs {
		m := &d.res.PerFunc[fc.Func]
		m.Invocations += int64(fc.Count)
		m.InvokedSlot++
		if !d.loaded[fc.Func] {
			m.ColdStarts++
			d.res.TotalColdStarts++
			if d.collectCold {
				d.cold = append(d.cold, fc.Func)
			}
		}
	}
	d.res.TotalInvocations += funcCountTotal(invs)
	d.res.TotalInvokedSlot += int64(len(invs))

	// Phase 2: let the policy observe and re-provision. The wall clock is
	// read only to annotate Overhead — it never feeds a decision.
	if d.measureOverhead {
		start := time.Now()
		d.policy.Tick(t, invs)
		d.res.Overhead += time.Since(start)
	} else {
		d.policy.Tick(t, invs)
	}

	// Phase 3: memory/WMT/EMCR accounting on the post-Tick loaded set.
	loadedCount := d.policy.LoadedCount()
	d.res.TotalMemory += int64(loadedCount)
	if loadedCount > d.res.MaxLoaded {
		d.res.MaxLoaded = loadedCount
	}

	// Each delta entry is one flip; toggling replays the Tick's loaded-set
	// changes exactly. An unload closes the residency [loadedFrom, t-1] and
	// charges its idle minutes (length minus the invoked-while-loaded slots)
	// in one step.
	d.flips, _ = d.tracker.TakeLoadDeltas()
	for _, fid := range d.flips {
		if d.loaded[fid] {
			d.loaded[fid] = false
			d.res.PerFunc[fid].WMTMinutes +=
				int64(t) - int64(d.loadedFrom[fid]) - int64(d.invokedLoaded[fid])
			d.invokedLoaded[fid] = 0
		} else {
			d.loaded[fid] = true
			d.loadedFrom[fid] = int32(t)
		}
	}

	activeLoaded := 0
	for _, fc := range invs {
		if d.loaded[fc.Func] {
			activeLoaded++
			d.invokedLoaded[fc.Func]++
		}
	}
	if d.log != nil {
		d.log.loaded = append(d.log.loaded, int32(loadedCount))
		d.log.active = append(d.log.active, int32(activeLoaded))
	}
	idle := loadedCount - activeLoaded
	if idle < 0 {
		// A policy evicting a function in the same slot it was invoked
		// cannot push idle below zero; guard against miscounting bugs.
		idle = 0
	}
	d.res.TotalWMT += int64(idle)
	if loadedCount > 0 {
		d.res.EMCRSum += float64(activeLoaded) / float64(loadedCount)
		d.res.EMCRSlots++
	}
}

// Grow extends the driver's per-function state to n functions, for live
// admission: the new functions start unloaded with zero metrics, exactly
// like a batch run whose trace always contained them with no events. The
// policy must have been grown first (core.SPES.Admit).
func (d *Driver) Grow(n int) {
	for len(d.res.PerFunc) < n {
		d.res.PerFunc = append(d.res.PerFunc, FuncMetrics{})
	}
	d.res.Functions = n
	for len(d.loaded) < n {
		d.loaded = append(d.loaded, false)
		d.loadedFrom = append(d.loadedFrom, 0)
		d.invokedLoaded = append(d.invokedLoaded, 0)
	}
}

// Close advances through any remaining invocation-free slots so the run
// spans exactly `slots` slots, closes the residencies still open, labels
// types, and returns the accumulated Result. The driver cannot Step again.
func (d *Driver) Close(slots int) *Result {
	if !d.closed {
		d.advanceTo(slots)
		d.next = slots
		d.closed = true
		for fid := range d.loaded {
			if d.loaded[fid] {
				d.res.PerFunc[fid].WMTMinutes +=
					int64(slots) - int64(d.loadedFrom[fid]) - int64(d.invokedLoaded[fid])
			}
		}
		d.res.Slots = slots
		n := len(d.res.PerFunc)
		if tagger, ok := d.policy.(TypeTagger); ok {
			d.res.Types = make([]string, n)
			for fid := 0; fid < n; fid++ {
				d.res.Types[fid] = tagger.TypeOf(trace.FuncID(fid))
			}
		}
	}
	return d.res
}
