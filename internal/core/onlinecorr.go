package core

import (
	"repro/internal/trace"
)

// Adaptive strategy 2 (Section IV-C2): online correlation for unseen
// functions. An unseen function (never invoked during training) is linked
// to candidate functions sharing its trigger; initially any candidate
// invocation pre-loads the target, and candidates whose running COR falls
// too far below the set's maximum are dropped (re-admitted if their COR
// recovers, which the running-counter formulation yields naturally).

// ucandidate tracks one candidate's running co-occurrence with a target.
type ucandidate struct {
	fid   trace.FuncID
	hits  int // target invocations preceded by this candidate within MaxLag
	fires int // candidate invocations observed while linked
}

// utarget is one unseen function's online-correlation state.
type utarget struct {
	fid         trace.FuncID
	invocations int // target invocations observed online
	cands       []ucandidate
}

// onlineCorr manages all unseen functions' candidate sets.
type onlineCorr struct {
	cfg Config
	// targets holds each unseen function's correlation state, densely
	// indexed by FuncID (nil for functions that are not targets); this
	// lookup sits in Tick's per-invocation loop, so no map.
	targets []*utarget
	// byCandidate lists the targets listening to each candidate, densely
	// indexed by FuncID.
	byCandidate [][]*utarget
	// lastFired tracks every function's most recent invocation slot, the
	// signal both hit counting and pre-loading read. -1 means never.
	lastFired []int

	// sameTrigger indexes candidate functions by (app, trigger) and
	// (user, trigger) for registration.
	meta []trace.Function
}

func newOnlineCorr(meta []trace.Function, cfg Config) *onlineCorr {
	lastFired := make([]int, len(meta))
	for i := range lastFired {
		lastFired[i] = -1
	}
	return &onlineCorr{
		cfg:         cfg,
		targets:     make([]*utarget, len(meta)),
		byCandidate: make([][]*utarget, len(meta)),
		lastFired:   lastFired,
		meta:        meta,
	}
}

// register enrolls an unseen function, selecting same-trigger candidates
// that share its application (preferred) or user, capped.
func (u *onlineCorr) register(fid trace.FuncID) {
	target := &utarget{fid: fid}
	f := u.meta[fid]
	add := func(cand trace.FuncID) bool {
		if cand == fid || len(target.cands) >= u.cfg.OnlineCandidateCap {
			return len(target.cands) < u.cfg.OnlineCandidateCap
		}
		for _, c := range target.cands {
			if c.fid == cand {
				return true
			}
		}
		target.cands = append(target.cands, ucandidate{fid: cand})
		return true
	}
	for id := range u.meta {
		c := &u.meta[id]
		if c.Trigger != f.Trigger || trace.FuncID(id) == fid {
			continue
		}
		if c.App == f.App {
			if !add(trace.FuncID(id)) {
				break
			}
		}
	}
	for id := range u.meta {
		c := &u.meta[id]
		if c.Trigger != f.Trigger || trace.FuncID(id) == fid {
			continue
		}
		if c.User == f.User && c.App != f.App {
			if !add(trace.FuncID(id)) {
				break
			}
		}
	}
	if len(target.cands) == 0 {
		return
	}
	u.targets[fid] = target
	for _, c := range target.cands {
		u.byCandidate[c.fid] = append(u.byCandidate[c.fid], target)
	}
}

// onlineCorrMinPrecision is the floor on hits-per-fire below which a
// candidate stops pre-loading the target: a busy candidate whose firings
// almost never precede a target invocation would otherwise keep the target
// resident continuously, the exact waste the offline mining's precision
// gate exists to prevent. Candidates are given a grace period of fires
// before the floor applies so slow-starting targets are not orphaned.
const (
	onlineCorrMinPrecision = 0.05
	onlineCorrGraceFires   = 20
)

// active reports whether a candidate is currently an accepted indicator for
// the target. Two filters apply: (1) relative — once CORs accumulate, a
// candidate must stay within OnlineCorrSlack of the set's maximum COR;
// (2) absolute — past a grace period, a candidate's fires must precede
// target invocations at a minimal precision. A candidate whose COR later
// recovers is re-admitted automatically (the counters are cumulative).
func (u *onlineCorr) active(t *utarget, c *ucandidate) bool {
	if c.fires >= onlineCorrGraceFires &&
		float64(c.hits) < onlineCorrMinPrecision*float64(c.fires) {
		return false
	}
	if t.invocations == 0 {
		return true
	}
	maxHits := 0
	for i := range t.cands {
		if t.cands[i].hits > maxHits {
			maxHits = t.cands[i].hits
		}
	}
	if maxHits == 0 {
		return true
	}
	maxCOR := float64(maxHits) / float64(t.invocations)
	cor := float64(c.hits) / float64(t.invocations)
	return maxCOR-cor <= u.cfg.OnlineCorrSlack
}

// preloader is the engine an onlineCorr pre-loads through: the event-driven
// one re-arms the target's deadline, the per-slot reference only loads.
type preloader interface {
	preloadThrough(fid trace.FuncID, t, until int)
}

// observe processes one slot's invocations: update hit counters for fired
// targets, then pre-load targets whose active candidates fired.
func (u *onlineCorr) observe(t int, invs []trace.FuncCount, s preloader) {
	maxLag := int(u.cfg.Classify.MaxLag)

	// Update lastFired first so same-slot candidate fires count as
	// indicators (minute granularity hides intra-slot ordering).
	for _, fc := range invs {
		u.lastFired[fc.Func] = t
	}

	// Credit candidates of targets that fired this slot.
	for _, fc := range invs {
		tgt := u.targets[fc.Func]
		if tgt == nil {
			continue
		}
		tgt.invocations++
		for i := range tgt.cands {
			last := u.lastFired[tgt.cands[i].fid]
			if last >= 0 && t-last <= maxLag {
				tgt.cands[i].hits++
			}
		}
	}

	// Pre-load targets of active candidates that fired.
	for _, fc := range invs {
		for _, tgt := range u.byCandidate[fc.Func] {
			var cand *ucandidate
			for i := range tgt.cands {
				if tgt.cands[i].fid == fc.Func {
					cand = &tgt.cands[i]
					break
				}
			}
			if cand == nil {
				continue
			}
			cand.fires++
			if !u.active(tgt, cand) {
				continue
			}
			s.preloadThrough(tgt.fid, t, t+maxLag)
		}
	}
}
