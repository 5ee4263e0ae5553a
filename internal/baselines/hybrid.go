package baselines

import (
	"fmt"
	"slices"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// HybridConfig parameterizes the histogram policy of Shahrad et al.
// (ATC'20, "Serverless in the Wild"), with the defaults their paper and the
// reproduction the SPES authors relied on use.
type HybridConfig struct {
	RangeMins       int     // histogram span (240 minutes = 4 hours)
	MinObservations int64   // below this the pattern is "insufficient"
	OOBMax          float64 // above this out-of-bounds share, fall back
	CVMax           float64 // above this coefficient of variation, fall back
	PrewarmPct      float64 // head percentile driving the pre-warm window (0.05)
	KeepAlivePct    float64 // tail percentile driving the keep-alive window (0.99)
	Margin          float64 // safety margin: shrink pre-warm, grow keep-alive (0.10)
	FallbackKeep    int     // keep-alive when the histogram is unusable
}

// DefaultHybridConfig returns the original paper's settings.
func DefaultHybridConfig() HybridConfig {
	return HybridConfig{
		RangeMins:       240,
		MinObservations: 5,
		OOBMax:          0.5,
		CVMax:           2.0,
		PrewarmPct:      0.05,
		KeepAlivePct:    0.99,
		Margin:          0.10,
		FallbackKeep:    240,
	}
}

// spanSlots bounds how far ahead the policy ever schedules: the margin-grown
// histogram tail plus slack, or the fallback keep-alive, whichever is
// larger. Deadlines beyond it (impossible under this config, but harmless)
// go on the wheel's far chain.
func (cfg HybridConfig) spanSlots() int {
	span := int(float64(cfg.RangeMins)*(1+cfg.Margin)) + 2
	if cfg.FallbackKeep+2 > span {
		span = cfg.FallbackKeep + 2
	}
	return span
}

// hybridUnit is the per-unit (function or application) histogram state. The
// histogram is allocated on the first observed inter-arrival time: at large
// scale most functions never accumulate one, and a nil histogram just means
// "insufficient pattern" — exactly the fallback an empty histogram selects.
type hybridUnit struct {
	hist *stats.Histogram
	last int // last invocation slot, -1 when never

	// Cached windows, recomputed when the histogram changes.
	prewarm   int // unload for this many slots after an invocation
	keepalive int // then stay loaded this many slots
	usable    bool
	dirty     bool
}

// addIAT charges one inter-arrival observation, allocating the histogram
// lazily.
func (u *hybridUnit) addIAT(iat float64, rangeMins int) {
	if u.hist == nil {
		u.hist = stats.NewHistogram(0, 1, rangeMins)
	}
	u.hist.Add(iat)
	u.dirty = true
}

// windows derives (prewarm, keepalive) from the unit's histogram per the
// head/tail rule, or flags the unit unusable for the fallback.
func (u *hybridUnit) windows(cfg HybridConfig) {
	u.dirty = false
	u.usable = false
	if u.hist == nil || u.hist.TotalWithOOB() < cfg.MinObservations {
		return
	}
	if u.hist.OOBFraction() > cfg.OOBMax {
		return
	}
	cv, ok := u.hist.CV()
	if !ok || cv > cfg.CVMax {
		return
	}
	head, ok1 := u.hist.Percentile(cfg.PrewarmPct)
	tail, ok2 := u.hist.Percentile(cfg.KeepAlivePct)
	if !ok1 || !ok2 {
		return
	}
	u.prewarm = int(head * (1 - cfg.Margin))
	u.keepalive = int(tail*(1+cfg.Margin)) - u.prewarm
	if u.keepalive < 1 {
		u.keepalive = 1
	}
	u.usable = true
}

// Hybrid implements the histogram policy at either function or application
// granularity. At application granularity (HA) all of an application's
// functions load and unload together, driven by the application's aggregate
// inter-arrival histogram.
type Hybrid struct {
	sim.LoadedSet

	cfg     HybridConfig
	appWise bool

	units  []hybridUnit
	unitOf []int   // function -> unit index
	fanout [][]int // unit -> functions (identity at function granularity)
	wheel  *sched.Wheel
	nFuncs int

	// seenEpoch dedups unit arrivals within a slot: stamped entries match
	// epoch, which increments every Tick — the alloc-free replacement for a
	// per-Tick map.
	seenEpoch []uint32
	epoch     uint32
}

const (
	actUnload  = 0
	actPrewarm = 1
)

// NewHybridFunction returns Hybrid-Function (HF): one histogram per
// function.
func NewHybridFunction(cfg HybridConfig) *Hybrid {
	return &Hybrid{cfg: cfg}
}

// NewHybridApplication returns Hybrid-Application (HA): one histogram per
// application, the original paper's granularity.
func NewHybridApplication(cfg HybridConfig) *Hybrid {
	return &Hybrid{cfg: cfg, appWise: true}
}

// Name implements sim.Policy.
func (p *Hybrid) Name() string {
	if p.appWise {
		return "Hybrid-Application"
	}
	return "Hybrid-Function"
}

// Train implements sim.Policy: build units and charge training inter-arrival
// times into their histograms.
func (p *Hybrid) Train(training *trace.Trace) {
	p.nFuncs = training.NumFunctions()
	p.Reset(p.nFuncs)

	if p.appWise {
		apps := training.AppFunctions()
		p.unitOf = make([]int, p.nFuncs)
		idx := 0
		// Deterministic unit ordering: first function's ID per app.
		for fid := 0; fid < p.nFuncs; fid++ {
			app := training.Functions[fid].App
			fns := apps[app]
			if fns == nil {
				continue
			}
			if int(fns[0]) != fid {
				continue // only the app's first function creates the unit
			}
			members := make([]int, len(fns))
			for i, f := range fns {
				members[i] = int(f)
				p.unitOf[f] = idx
			}
			p.fanout = append(p.fanout, members)
			idx++
		}
	} else {
		p.unitOf = make([]int, p.nFuncs)
		p.fanout = make([][]int, p.nFuncs)
		for fid := 0; fid < p.nFuncs; fid++ {
			p.unitOf[fid] = fid
			p.fanout[fid] = []int{fid}
		}
	}

	p.units = make([]hybridUnit, len(p.fanout))
	for i := range p.units {
		p.units[i] = hybridUnit{last: -1}
	}
	p.seenEpoch = make([]uint32, len(p.units))
	// A Tick leaves a unit at most three actions: unload after execution,
	// pre-warm and give-up.
	p.wheel = sched.NewWheel(len(p.units), 3, p.cfg.spanSlots())

	// Feed training IATs at unit granularity, then carry end-of-training
	// state into the simulation: the unit behaves as if the policy had been
	// running during training, so its last pre-warm/keep-alive window may
	// straddle the boundary.
	for i, members := range p.fanout {
		var slots []int32
		for _, f := range members {
			for _, e := range training.Series[f] {
				slots = append(slots, e.Slot)
			}
		}
		slots = dedupSortInt32(slots)
		unit := &p.units[i]
		for j := 1; j < len(slots); j++ {
			unit.addIAT(float64(slots[j]-slots[j-1]), p.cfg.RangeMins)
		}
		unit.windows(p.cfg)
		if len(slots) == 0 {
			continue
		}
		rebased := int(slots[len(slots)-1]) - training.Slots
		unit.last = rebased
		p.seedWindows(i, rebased)
	}
}

// seedWindows schedules the load/unload actions a unit's last (rebased,
// negative) invocation implies on the simulation timeline.
func (p *Hybrid) seedWindows(u, rebased int) {
	unit := &p.units[u]
	if unit.usable && unit.prewarm > 1 {
		start := rebased + unit.prewarm
		end := start + unit.keepalive
		if end <= 0 {
			return
		}
		if start <= 0 {
			p.loadUnit(u)
		} else {
			p.wheel.Schedule(-1, start, u, actPrewarm)
		}
		p.wheel.Schedule(-1, end, u, actUnload)
		return
	}
	keep := p.cfg.FallbackKeep
	if unit.usable {
		keep = unit.keepalive
	}
	if end := rebased + keep; end > 0 {
		p.loadUnit(u)
		p.wheel.Schedule(-1, end, u, actUnload)
	}
}

// Tick implements sim.Policy.
func (p *Hybrid) Tick(t int, invs []trace.FuncCount) {
	// Unit-level arrivals (deduplicated per slot via the epoch stamps).
	p.epoch++
	for _, fc := range invs {
		u := p.unitOf[fc.Func]
		if p.seenEpoch[u] == p.epoch {
			continue
		}
		p.seenEpoch[u] = p.epoch
		unit := &p.units[u]
		if unit.last >= 0 {
			unit.addIAT(float64(t-unit.last), p.cfg.RangeMins)
		}
		unit.last = t
		if unit.dirty {
			unit.windows(p.cfg)
		}
		p.wheel.Cancel(u)
		p.loadUnit(u)
		if unit.usable && unit.prewarm > 1 {
			// Unload after execution, pre-warm shortly before the predicted
			// next arrival, give up at the keep-alive horizon.
			p.wheel.Schedule(t, t+1, u, actUnload)
			p.wheel.Schedule(t, t+unit.prewarm, u, actPrewarm)
			p.wheel.Schedule(t, t+unit.prewarm+unit.keepalive, u, actUnload)
		} else if unit.usable {
			// Degenerate head: plain keep-alive of the tail window.
			p.wheel.Schedule(t, t+unit.keepalive, u, actUnload)
		} else {
			p.wheel.Schedule(t, t+p.cfg.FallbackKeep, u, actUnload)
		}
	}

	p.wheel.Drain(t, func(owner, what int) {
		switch what {
		case actUnload:
			p.unloadUnit(owner)
		case actPrewarm:
			p.loadUnit(owner)
		}
	})
}

// NextWake implements sim.IdleSkipper: the earliest slot in (after, limit]
// holding a scheduled action, -1 when there is none.
func (p *Hybrid) NextWake(after, limit int) (int, bool) {
	return p.wheel.NextOccupied(after, limit), true
}

func (p *Hybrid) loadUnit(u int) {
	for _, f := range p.fanout[u] {
		p.Load(trace.FuncID(f))
	}
}

func (p *Hybrid) unloadUnit(u int) {
	for _, f := range p.fanout[u] {
		p.Unload(trace.FuncID(f))
	}
}

func dedupSortInt32(xs []int32) []int32 {
	if len(xs) < 2 {
		return xs
	}
	slices.Sort(xs)
	out := xs[:1]
	for _, v := range xs[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// String renders the policy configuration for reports.
func (p *Hybrid) String() string {
	return fmt.Sprintf("%s(range=%dm, head=%.0f%%, tail=%.0f%%)",
		p.Name(), p.cfg.RangeMins, p.cfg.PrewarmPct*100, p.cfg.KeepAlivePct*100)
}
