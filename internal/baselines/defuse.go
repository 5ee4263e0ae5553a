package baselines

import (
	"slices"

	"repro/internal/classify"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DefuseConfig parameterizes the Defuse policy (Shen et al., ICDCS'21).
// Defuse mines inter-function dependencies from invocation histories —
// strong dependencies from frequent co-occurrence episodes, weak ones from
// positive pointwise mutual information — and pre-warms a function when its
// predecessors fire. Functions without usable dependencies or histograms
// fall back to a fixed keep-alive (the original reports falling back for
// over 32% of functions).
type DefuseConfig struct {
	MaxLag        int32   // dependency window (slots)
	MinSupport    int     // minimum co-occurrence count for a dependency
	MinConfidence float64 // minimum P(target | predecessor fired within lag)
	MaxPredFanout int     // cap on mined predecessors per function

	Hist         HybridConfig // per-function histogram keep-alive settings
	FallbackKeep int          // fixed keep-alive fallback (10 min)
	PrewarmHold  int32        // how long a dependency pre-load stays resident
}

// DefaultDefuseConfig returns settings following the original paper.
func DefaultDefuseConfig() DefuseConfig {
	return DefuseConfig{
		MaxLag:        10,
		MinSupport:    3,
		MinConfidence: 0.5,
		MaxPredFanout: 5,
		Hist: func() HybridConfig {
			// Defuse's histogram gate is stricter than Hybrid's: the SPES
			// paper reports it falling back to fixed keep-alive for more
			// than 32% of functions.
			h := DefaultHybridConfig()
			h.MinObservations = 10
			return h
		}(),
		FallbackKeep: 10,
		PrewarmHold:  12,
	}
}

// spanSlots bounds how far ahead Defuse ever schedules: the histogram span
// plus the dependency windows.
func (cfg DefuseConfig) spanSlots() int {
	span := cfg.Hist.spanSlots()
	for _, s := range []int{cfg.FallbackKeep + 2, int(cfg.PrewarmHold) + 2, int(cfg.MaxLag) + 2} {
		if s > span {
			span = s
		}
	}
	return span
}

// Defuse implements sim.Policy.
type Defuse struct {
	sim.LoadedSet

	cfg DefuseConfig

	wheel *sched.Wheel
	last  []int

	units []hybridUnit // per-function histograms (function granularity)

	// successors maps a predecessor to the functions it pre-warms.
	successors map[trace.FuncID][]trace.FuncID
	hasDeps    []bool
}

// NewDefuse creates the policy.
func NewDefuse(cfg DefuseConfig) *Defuse { return &Defuse{cfg: cfg} }

// Name implements sim.Policy.
func (p *Defuse) Name() string { return "Defuse" }

// Train mines the dependency graph and charges per-function histograms.
func (p *Defuse) Train(training *trace.Trace) {
	n := training.NumFunctions()
	p.Reset(n)
	p.wheel = sched.NewWheel(n, 1, p.cfg.spanSlots())
	p.last = make([]int, n)
	p.hasDeps = make([]bool, n)
	p.successors = make(map[trace.FuncID][]trace.FuncID)
	for i := range p.last {
		p.last[i] = -1
	}

	// Histograms at function granularity (allocated on first inter-arrival),
	// with end-of-training carryover.
	p.units = make([]hybridUnit, n)
	invoked := make([][]int32, n)
	for fid := 0; fid < n; fid++ {
		p.units[fid] = hybridUnit{last: -1}
		for _, e := range training.Series[fid] {
			invoked[fid] = append(invoked[fid], e.Slot)
		}
		unit := &p.units[fid]
		for j := 1; j < len(invoked[fid]); j++ {
			unit.addIAT(float64(invoked[fid][j]-invoked[fid][j-1]), p.cfg.Hist.RangeMins)
		}
		unit.windows(p.cfg.Hist)
		if len(invoked[fid]) == 0 {
			continue
		}
		rebased := int(invoked[fid][len(invoked[fid])-1]) - training.Slots
		unit.last = rebased
		p.last[fid] = rebased
		keep := p.cfg.FallbackKeep
		if unit.usable {
			keep = unit.prewarm + unit.keepalive
		}
		if end := rebased + keep; end > 0 {
			p.Load(trace.FuncID(fid))
			p.wheel.Schedule(-1, end, fid, actUnload)
		}
	}

	// Dependency mining: within each application, accept predecessor ->
	// target edges whose windowed confidence and support clear the bars.
	// (The original mines frequent episodes across the whole trace; apps
	// bound the candidate set exactly as its evaluation does.)
	for _, fns := range training.AppFunctions() {
		for _, target := range fns {
			if len(invoked[target]) == 0 {
				continue
			}
			type cand struct {
				pred trace.FuncID
				conf float64
			}
			var accepted []cand
			for _, pred := range fns {
				if pred == target || len(invoked[pred]) == 0 {
					continue
				}
				// Association-rule confidence: P(target follows within the
				// window | pred fired), with absolute support. Normalizing
				// by the predecessor's activity keeps busy functions from
				// linking to everything in their application.
				conf := classify.WindowedFollowRate(invoked[pred], invoked[target], p.cfg.MaxLag)
				support := int(conf * float64(len(invoked[pred])))
				if conf >= p.cfg.MinConfidence && support >= p.cfg.MinSupport {
					accepted = append(accepted, cand{pred: pred, conf: conf})
				}
			}
			slices.SortFunc(accepted, func(a, b cand) int {
				if a.conf != b.conf {
					if a.conf > b.conf {
						return -1
					}
					return 1
				}
				return int(a.pred) - int(b.pred)
			})
			if len(accepted) > p.cfg.MaxPredFanout {
				accepted = accepted[:p.cfg.MaxPredFanout]
			}
			for _, c := range accepted {
				p.successors[c.pred] = append(p.successors[c.pred], target)
				p.hasDeps[target] = true
			}
		}
	}
}

// Tick implements sim.Policy.
func (p *Defuse) Tick(t int, invs []trace.FuncCount) {
	for _, fc := range invs {
		f := int(fc.Func)
		unit := &p.units[f]
		if unit.last >= 0 {
			unit.addIAT(float64(t-unit.last), p.cfg.Hist.RangeMins)
		}
		unit.last = t
		if unit.dirty {
			unit.windows(p.cfg.Hist)
		}
		p.last[f] = t
		p.wheel.Cancel(f)
		p.Load(fc.Func)
		// Keep-alive horizon: histogram tail when usable, fallback fixed
		// keep-alive otherwise. Dependency-covered functions rely on their
		// predecessors and release memory sooner.
		keep := p.cfg.FallbackKeep
		if unit.usable {
			keep = unit.prewarm + unit.keepalive
		} else if p.hasDeps[f] {
			keep = int(p.cfg.MaxLag)
		}
		if keep < 1 {
			keep = 1
		}
		p.wheel.Schedule(t, t+keep, f, actUnload)
	}

	// Dependency pre-warming: predecessors that fired pre-load successors.
	for _, fc := range invs {
		for _, succ := range p.successors[fc.Func] {
			if p.Loaded(succ) {
				continue
			}
			p.Load(succ)
			p.wheel.Cancel(int(succ))
			p.wheel.Schedule(t, t+int(p.cfg.PrewarmHold), int(succ), actUnload)
		}
	}

	p.wheel.Drain(t, func(owner, what int) {
		if what == actUnload {
			p.Unload(trace.FuncID(owner))
		}
	})
}

// NextWake implements sim.IdleSkipper: the earliest slot in (after, limit]
// holding a scheduled action, -1 when there is none.
func (p *Defuse) NextWake(after, limit int) (int, bool) {
	return p.wheel.NextOccupied(after, limit), true
}
