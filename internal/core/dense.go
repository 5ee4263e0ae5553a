package core

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// DenseReference is Algorithm 1 as the paper writes it: every function,
// every slot. It is the reference the equivalence matrix (internal/eqv,
// behind the root tests and cmd/eqvcheck) holds the event-driven SPES to,
// bit for bit, and nothing else: it shares the provision state and predicates with SPES
// but implements only sim.Policy, LoadDeltaTracker, TypeTagger and
// Retrainer — no NewShard, NextWake or EncodeState — so it cannot be
// sharded, idle-skipped, snapshotted or served.
type DenseReference struct{ provision }

var _ interface {
	sim.Policy
	sim.LoadDeltaTracker
	sim.TypeTagger
	sim.Retrainer
} = (*DenseReference)(nil)

// NewDenseReference creates the untrained reference policy.
func NewDenseReference(cfg Config) *DenseReference {
	return &DenseReference{newProvision(cfg)}
}

// Train implements sim.Policy.
func (d *DenseReference) Train(training *trace.Trace) { d.train(training) }

// Retrain implements sim.Retrainer; the next Tick's scan reads the fresh
// profiles, so there is nothing to re-arm.
func (d *DenseReference) Retrain(_ int, window *trace.Trace) { d.retrain(window) }

// Tick implements Algorithm 1 for one slot by scanning all functions.
func (d *DenseReference) Tick(t int, invs []trace.FuncCount) {
	// invs is FuncID-ascending, so walk it in lockstep with the scan instead
	// of building a membership set.
	next := 0
	for i := range d.states {
		fid := trace.FuncID(i)
		st := &d.states[i]
		if next < len(invs) && invs[next].Func == fid {
			next++
			// Lines 3-12: record the finished WT, reset, adapt, load.
			if st.currentWT > 0 && int(d.lastInvoked[fid]) > -d.trainSlots {
				d.recordOnlineWT(fid, st.currentWT)
			}
			d.lastInvoked[fid] = int32(t)
			st.currentWT = 0
			d.wtOff[fid] = 0
			d.preloadUntil[fid] = -1
			d.Load(fid)
			continue
		}

		// Lines 13-20: idle bookkeeping, pre-load or evict.
		st.currentWT++
		if d.shouldPreload(fid, t) {
			d.Load(fid)
		} else if d.Loaded(fid) && st.currentWT >= d.thetaGivenup(d.typ[fid]) {
			d.Unload(fid)
		}
	}

	// Indicator-driven pre-loading, as in SPES.Tick (line 22).
	for _, fc := range invs {
		for _, l := range d.listeners[fc.Func] {
			d.preloadThrough(l.target, t, t+int(l.lag)+d.cfg.Classify.ThetaPrewarm)
		}
	}
	if d.ucorr != nil {
		d.ucorr.observe(t, invs, d)
	}
}
