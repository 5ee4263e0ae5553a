package classify

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sort"

	"repro/internal/series"
	"repro/internal/trace"
)

// catChunkFor is the per-function pass's work-unit size for n functions on
// workers workers: about eight chunks per worker, so a small population (a
// 1 000-function retrain window, a 375-function streamed shard) still
// spreads over every worker and balances its skew (dense always-warm series
// cost far more than silent ones). It is never under 16 functions, where
// the atomic hand-off would stop being noise, nor over 512, which balances
// a large population.
func catChunkFor(n, workers int) int {
	return min(max(n/(8*workers), 16), 512)
}

// Outcome is the offline categorization result for an entire trace.
type Outcome struct {
	Profiles []Profile // indexed by trace.FuncID
}

// maxLinks caps a correlated function's fan-in to bound online work.
const maxLinks = 5

// Categorize runs SPES's complete offline phase over a training trace:
// deterministic categorization with forgetting, correlation mining over
// application/user co-membership, and validation-scored indeterminate
// assignment. Ablation switches: disableCorrelation drops the correlated
// strategy (Fig. 14's "w/o Corr"), disableForgetting skips the forgetting
// rule (Fig. 15's "w/o Forgetting").
//
// The call allocates what escapes it — Outcome.Profiles and each kept
// profile's Values and Links — plus the peer index and, when no scratch is
// free or a function needs more room than the scratch it borrowed has,
// worker scratch; every per-function intermediate lives in scratch, and
// invoked-slot lists are read in place through training.Parts, so a view
// (a retrain window) is categorized without a copy of its events, and a
// materialized trace is its one-part case. Each FanOut
// worker borrows one scratch from the process-wide free list (scratchFree)
// at its first item and returns it when the call ends, so a policy that
// categorizes at every retrain boundary, or one instance per shard, grows
// the buffers once per concurrent worker rather than once per call or per
// instance. Nothing returned points into scratch. Categorize is safe for
// concurrent use.
func Categorize(training *trace.Trace, cfg Config, disableCorrelation, disableForgetting bool) *Outcome {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ws := make([]*scratch, workers)
	defer putScratches(ws)
	n := training.NumFunctions()
	out := &Outcome{Profiles: make([]Profile, n)}
	valStart := int(float64(training.Slots) * (1 - cfg.ValidationFrac))
	if valStart <= 0 || valStart >= training.Slots {
		valStart = training.Slots / 2
	}

	// Pass 1: deterministic (with forgetting), collecting the leftovers.
	// Activities come straight from the sparse event series — O(events per
	// function), not O(slots) — so the pass costs nothing for the mostly-idle
	// long tail of a large population. Functions are independent, so the pass
	// fans out over chunks (catChunkFor); each chunk owns its output slots
	// and its leftover list, and the chunk-order concatenation below restores
	// the exact serial ordering, making the outcome identical for any worker
	// count and chunk size.
	chunk := catChunkFor(n, workers)
	chunks := (n + chunk - 1) / chunk
	indetFids := make([][]trace.FuncID, chunks)
	trace.FanOut(workers, chunks, func(wi, k int) error {
		w := borrow(ws, wi)
		lo, hi := k*chunk, (k+1)*chunk
		if hi > n {
			hi = n
		}
		for fid := lo; fid < hi; fid++ {
			s := training.Parts(trace.FuncID(fid))
			if s.Len() == 0 {
				out.Profiles[fid] = Profile{Type: TypeUnknown}
				continue
			}
			// Always-warm resolves straight off the series (definition 1 is
			// tested on the full window first under both paths), sparing the
			// heaviest functions — the ones with events in nearly every slot —
			// the full extraction.
			p, ok := alwaysWarmFast(s, training.Slots, cfg)
			if !ok {
				act := w.extractWindow(s, 0, training.Slots)
				if disableForgetting {
					p, ok = w.categorizeActivity(act, w.distInto(0, act.WT), cfg)
				} else {
					p, ok = w.categorizeWithForgettingSparse(s, act, cfg)
				}
			}
			if ok {
				out.Profiles[fid] = p
				continue
			}
			indetFids[k] = append(indetFids[k], trace.FuncID(fid))
		}
		return nil
	})
	var indeterminate []trace.FuncID
	for k := range indetFids {
		indeterminate = append(indeterminate, indetFids[k]...)
	}
	if len(indeterminate) == 0 {
		return out
	}

	// Candidate sets: functions sharing an application or a user.
	apps := training.AppFunctions()
	users := training.UserFunctions()
	meta := training.Functions

	// Pass 2: indeterminate assignment. Targets are mutually independent —
	// each writes only its own profile slot, and everything it mines (the
	// training series, the peer index) is read-only — so the assignment fans
	// out too. A target's full-window activity is extracted again here, into
	// the worker's scratch, rather than kept alive from pass 1: it costs
	// O(events) and nothing of pass 1's working memory has to outlive it.
	// Validation fires are the events from valStart on (Parts.From), rebased
	// as they are read.
	trace.FanOut(workers, len(indeterminate), func(wi, i int) error {
		w := borrow(ws, wi)
		fid := indeterminate[i]
		s := training.Parts(fid)
		act := w.extractWindow(s, 0, training.Slots)
		var links []Link
		var cands [maxLinks]trace.Parts
		if !disableCorrelation {
			links = w.mineLinks(fid, training, apps[meta[fid].App], users[meta[fid].User], cfg)
			for j, l := range links {
				cands[j] = training.Parts(trace.FuncID(l.Cand)).From(valStart)
			}
		}
		out.Profiles[fid] = w.assignIndeterminate(act, s.From(valStart),
			training.Slots-valStart, links, cands[:len(links)], cfg)
		return nil
	})
	return out
}

// extractWindow computes the series.Activity of the window [start,
// start+slots) of a function's sparse events, reproducing
// series.Extract(dense[start:]) bit for bit in O(events in window) time.
// It relies on the trace.Series invariants: ascending unique slots,
// positive counts. The returned AT, AN and WT are views into w, valid until
// w extracts again.
func (w *scratch) extractWindow(s trace.Parts, start, slots int) series.Activity {
	a := series.Activity{Slots: slots}
	evs := s.From(start)
	k := evs.Len()
	if k == 0 {
		return a
	}
	// A run needs at least one event, and runs r apart need an idle slot
	// between them, so r active plus r-1 idle slots fit in the events' span:
	// the smaller bound sizes all three lengths.
	n := min(k, (int(evs.Last()-evs.First())+2)/2)
	w.act = sized(w.act, 3*n)
	runs := w.act // AT at [0, n), AN at [n, 2n), WT at [2n, 3n)

	// The loop has no branch on the data. Every event stores the open run r
	// as if it closed before this event: the stores are overwritten until
	// one does, a non-zero gap, which then only advances r and restarts the
	// run state (conditional moves). It keeps one base for the three
	// lengths, so what it carries stays in registers, and carries them from
	// one part into the next.
	st := runState{prev: int(evs.First()) - 1} // slot of the previous event
	st.runStart = st.prev + 1
	for _, p := range evs {
		st = st.scan(runs, n, p.Events, int(p.Base))
	}
	prev, runStart, runSum, inv, r := st.prev, st.runStart, st.runSum, st.inv, st.r
	runs[r], runs[n+r] = prev-runStart+1, runSum
	a.AT, a.AN = runs[:r+1:r+1], runs[n:n+r+1:n+r+1]
	if r > 0 {
		a.WT = runs[2*n : 2*n+r : 2*n+r]
	}
	a.Invocations = inv
	return a
}

// runState is extractWindow's loop state, carried from one part into the
// next.
type runState struct {
	prev, runStart int // the previous event's slot; the open run's first
	runSum, inv, r int // the open run's invocations; all of them; runs closed
}

// scan runs extractWindow's loop over one part's events, read at base,
// into runs (AT at [0, n), AN at [n, 2n), WT at [2n, 3n)).
func (st runState) scan(runs []int, n int, evs trace.Series, base int) runState {
	prev, runStart, runSum, inv, r := st.prev, st.runStart, st.runSum, st.inv, st.r
	for _, e := range evs {
		slot, c := int(e.Slot)-base, int(e.Count)
		gap := slot - prev - 1
		runs[r], runs[n+r], runs[2*n+r] = prev-runStart+1, runSum, gap
		if gap != 0 {
			r++
			runStart = slot
			runSum = 0
		}
		runSum += c
		inv += c
		prev = slot
	}
	return runState{prev, runStart, runSum, inv, r}
}

// seriesExtract is a full-window extraction annotated with per-run metadata
// so forgetting-suffix activities can be derived without re-scanning the
// events: a suffix shares the full window's WT/AT/AN tails (zero-copy when
// the cut lands between runs), and only a run straddling the cut needs its
// length and invocation sum recomputed.
type seriesExtract struct {
	act       series.Activity
	events    trace.Parts
	runStarts []int32 // absolute first slot of each run
	prefixInv []int   // prefixInv[r] = total invocations of runs [0, r)
	slots     int
}

// alwaysWarmFast evaluates the always-warm definition (definition 1) on the
// window of slots slots holding the events s: invoked at every slot, or
// total inter-invocation idle at or below one-thousandth of the window. The
// paper's literal condition (2) would also admit a function invoked in one
// short dense flurry (its summed WT is trivially 0), so the idle-fraction
// branch additionally requires activity to span most of the window. It reads
// the sparse events alone — every event is one active slot, so the
// active-slot count is s.Len() and the summed inter-run idle is the span
// minus it — and is exact: condition and profile match the definition over
// the window's Activity (TestAlwaysWarmFastMatchesActivityBranch).
func alwaysWarmFast(s trace.Parts, slots int, cfg Config) (Profile, bool) {
	active := s.Len()
	if active == 0 {
		return Profile{}, false
	}
	first := s.First()
	totalWT := int(s.Last()-first) + 1 - active
	if active == slots ||
		(float64(totalWT) <= cfg.AlwaysWarmIdleFrac*float64(slots) &&
			float64(active) >= 0.5*float64(slots)) {
		runs := 0
		prev := first - 2 // the first event starts a run
		for _, p := range s {
			for _, e := range p.Events {
				slot := e.Slot - p.Base
				if slot != prev+1 {
					runs++
				}
				prev = slot
			}
		}
		return Profile{Type: TypeAlwaysWarm, WTCount: runs - 1}, true
	}
	return Profile{}, false
}

// extractMeta annotates an existing full-window Activity with the run
// metadata suffix derivation needs, held in w.
func (w *scratch) extractMeta(s trace.Parts, slots int, act series.Activity) seriesExtract {
	runs := len(act.AT)
	w.runStarts = sized(w.runStarts, runs)
	w.prefixInv = sized(w.prefixInv, runs+1)
	se := seriesExtract{act: act, events: s, slots: slots,
		runStarts: w.runStarts, prefixInv: w.prefixInv}
	se.prefixInv[0] = 0
	r := 0
	prev := s.First() - 2 // the first event starts a run
	for _, p := range s {
		for _, e := range p.Events {
			slot := e.Slot - p.Base
			if slot != prev+1 {
				se.runStarts[r] = slot
				se.prefixInv[r+1] = se.prefixInv[r] + se.act.AN[r]
				r++
			}
			prev = slot
		}
	}
	return se
}

// suffix derives the Activity of the window [start, slots), bit-identical to
// extractWindow(s, start, slots-start). A straddled first run's rebuilt AT
// and AN live in w, valid until the next suffix.
func (se *seriesExtract) suffix(w *scratch, start int) series.Activity {
	slots := se.slots - start
	runs := len(se.act.AT)
	// First run ending at or after start.
	r := sort.Search(runs, func(i int) bool {
		return int(se.runStarts[i])+se.act.AT[i] > start
	})
	if r == runs {
		return series.Activity{Slots: slots}
	}
	a := series.Activity{
		Slots:       slots,
		Invocations: se.prefixInv[runs] - se.prefixInv[r],
	}
	if r+1 < runs {
		a.WT = se.act.WT[r:]
	}
	if int(se.runStarts[r]) >= start {
		// Clean cut between runs: the tails are shared as-is.
		a.AT = se.act.AT[r:]
		a.AN = se.act.AN[r:]
		return a
	}
	// Run r straddles the cut: rebuild its truncated length and count.
	n := runs - r
	w.cutRuns = sized(w.cutRuns, 2*n)
	a.AT = w.cutRuns[:n:n]
	a.AN = w.cutRuns[n:]
	copy(a.AT, se.act.AT[r:])
	copy(a.AN, se.act.AN[r:])
	runEnd := int(se.runStarts[r]) + se.act.AT[r] // one past the run's last slot
	a.AT[0] = runEnd - start
	dropped := int(se.events.Between(int(se.runStarts[r]), start).Total())
	a.AN[0] -= dropped
	a.Invocations -= dropped
	return a
}

// categorizeWithForgettingSparse first tries the full window (whose
// always-warm test the caller has made), then applies the forgetting rule
// of Section IV-B1: drop the oldest day and re-test, out to half the
// observation window; ok is false when no suffix matches. It is
// fed from the sparse event series: the full window is extracted once
// (O(events)), and each forgetting suffix reuses its run structure instead
// of re-scanning. A suffix's WTs are a suffix of the previous window's, so
// its raw distribution is the previous one with the WTs that left removed,
// not a fresh sort.
// The run metadata is only built when the full window fails to categorize,
// which the majority of functions never reach.
func (w *scratch) categorizeWithForgettingSparse(s trace.Parts, act series.Activity, cfg Config) (Profile, bool) {
	slots := act.Slots
	raw := w.distInto(0, act.WT)
	if p, ok := w.categorizeActivity(act, raw, cfg); ok {
		return p, true
	}
	days := slots / cfg.SlotsPerDay
	if days/2 < 1 {
		return Profile{}, false
	}
	se := w.extractMeta(s, slots, act)
	wts := act.WT
	for drop := 1; drop <= days/2; drop++ {
		start := drop * cfg.SlotsPerDay
		sa := se.suffix(w, start)
		raw.remove(wts[:len(wts)-len(sa.WT)]...)
		wts = sa.WT
		if p, ok := alwaysWarmFast(s.From(start), slots-start, cfg); ok {
			return p, true
		}
		if p, ok := w.categorizeActivity(sa, raw, cfg); ok {
			return p, true
		}
	}
	return Profile{}, false
}

// mineLinks computes T-lagged COR between the target and every candidate
// sharing its application or user, accepting candidates whose best lagged
// COR clears the threshold. Links are ordered by descending COR and capped
// at maxLinks; the returned slice is the caller's to keep (nil when nothing
// was accepted).
//
// Two prunes skip the lag scan for candidates whose rejection is already
// decided by the list lengths alone; they change no outcome.
func (w *scratch) mineLinks(target trace.FuncID, tr *trace.Trace, appPeers, userPeers []trace.FuncID, cfg Config) []Link {
	targetSlots := tr.Parts(target)
	nTarget := targetSlots.Len()
	if nTarget == 0 {
		return nil
	}
	w.lags.reset(targetSlots)
	// A stamp left by an earlier call (the scratch outlives it) is below the
	// current generation; a generation about to wrap restarts on fresh
	// stamps.
	if n := len(tr.Series); len(w.seen) < n || w.seenGen == math.MaxUint32 {
		w.seen, w.seenGen = make([]uint32, n), 0
	}
	w.seenGen++
	seen, seenGen := w.seen, w.seenGen
	seen[target] = seenGen
	// Precision gate's slack: the pre-warm window the scoring assumes.
	slack := int32(cfg.ValidationPrewarm)
	if slack <= 0 {
		slack = int32(cfg.ThetaPrewarm)
	}
	// Every target slot lies inside the follow window of at most 2*slack+1
	// candidate slots, which bounds FollowRate's hit count from above.
	maxFollows := 0.0
	if slack >= 0 {
		maxFollows = float64((2*int(slack) + 1) * nTarget)
	}

	accepted := w.accepted[:0]
	consider := func(cand trace.FuncID) {
		if seen[cand] == seenGen {
			return
		}
		seen[cand] = seenGen
		candSlots := tr.Parts(cand)
		nCand := candSlots.Len()
		if nCand == 0 {
			return
		}
		// A lag's hit count can't exceed the candidate's invocation count,
		// so a candidate too quiet relative to the target can never clear
		// the COR threshold — skip the lag scan.
		if float64(nCand) < cfg.CORThreshold*float64(nTarget) {
			return
		}
		// The mirror image: a candidate too busy relative to the target can
		// never clear the precision gate below, whatever the lag.
		if maxFollows/float64(nCand) < cfg.LinkPrecision {
			return
		}
		// Both kernels count the same integer hits; the sizes pick the
		// cheaper one for the pair.
		bitset := bitsetLagScanPays(nTarget, nCand, w.lags.words, cfg.MaxLag)
		var lag int32
		var cor float64
		if bitset {
			w.lags.setCandidate(candSlots)
			lag, cor = w.lags.bestLaggedCOR(cfg.MaxLag)
		} else {
			lag, cor = BestLaggedCOR(targetSlots, candSlots, cfg.MaxLag)
		}
		if cor < cfg.CORThreshold {
			return
		}
		// Precision gate: most of the candidate's fires must actually
		// precede a target invocation, otherwise pre-loading on its fires
		// wastes memory continuously.
		var follow float64
		if bitset {
			follow = w.lags.followRate(lag, slack)
		} else {
			follow = FollowRate(candSlots, targetSlots, lag, slack)
		}
		if follow < cfg.LinkPrecision {
			return
		}
		accepted = append(accepted, scoredLink{link: Link{Cand: int32(cand), Lag: lag}, cor: cor})
	}
	for _, c := range appPeers {
		consider(c)
	}
	for _, c := range userPeers {
		consider(c)
	}
	w.accepted = accepted
	if len(accepted) == 0 {
		return nil
	}
	// (COR, Cand) is a total order — a candidate is considered once — so the
	// ranking does not depend on the sort's handling of equal elements.
	slices.SortFunc(accepted, func(a, b scoredLink) int {
		if a.cor != b.cor {
			return cmp.Compare(b.cor, a.cor)
		}
		return cmp.Compare(a.link.Cand, b.link.Cand)
	})
	if len(accepted) > maxLinks {
		accepted = accepted[:maxLinks]
	}
	links := make([]Link, len(accepted))
	for i, a := range accepted {
		links[i] = a.link
	}
	return links
}
