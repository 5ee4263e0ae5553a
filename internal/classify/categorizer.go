package classify

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/series"
	"repro/internal/trace"
)

// workerTokens caps the categorization helper goroutines alive across ALL
// concurrent Categorize calls at GOMAXPROCS: sharded simulations train one
// policy per shard concurrently, and each of those trainings categorizes in
// parallel, so without a process-wide budget the helper count would multiply
// to shards x cores. The calling goroutine always works without a token, so
// progress never depends on token availability.
var workerTokens = make(chan struct{}, runtime.GOMAXPROCS(0))

// parallelDo runs fn(w, k) for every k in [0, items), fanning out over at
// most len(ws) goroutines (the caller included), each holding its own
// scratch for the whole run. Work is handed out by an atomic counter, so
// scheduling is nondeterministic — callers must make fn(w, k) write only to
// slot k-owned state and treat w as working memory whose contents mean
// nothing between items, which keeps results bit-identical for every worker
// count. Helpers that cannot immediately draw a token are simply not spawned
// (the machine is busy; the caller still finishes the work itself).
func parallelDo(ws []scratch, items int, fn func(w *scratch, k int)) {
	var next atomic.Int64
	work := func(w *scratch) {
		for {
			k := int(next.Add(1)) - 1
			if k >= items {
				return
			}
			fn(w, k)
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < len(ws) && i < items; i++ {
		select {
		case workerTokens <- struct{}{}:
			wg.Add(1)
			go func(w *scratch) {
				defer wg.Done()
				defer func() { <-workerTokens }()
				work(w)
			}(&ws[i])
		default:
		}
	}
	work(&ws[0])
	wg.Wait()
}

// catChunk is the per-function pass's work-unit size: large enough that the
// atomic hand-off is noise, small enough to balance skewed populations
// (dense always-warm series cost far more than silent ones).
const catChunk = 512

// Outcome is the offline categorization result for an entire trace.
type Outcome struct {
	Profiles []Profile // indexed by trace.FuncID
}

// Count returns how many functions landed in each type.
func (o *Outcome) Count() map[Type]int {
	counts := make(map[Type]int)
	for _, p := range o.Profiles {
		counts[p.Type]++
	}
	return counts
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
// Categorize is the one-shot form of Categorizer.Categorize: it runs on
// fresh worker scratch, which it drops on return.
func Categorize(training *trace.Trace, cfg Config, disableCorrelation, disableForgetting bool) *Outcome {
	return new(Categorizer).Categorize(training, cfg, disableCorrelation, disableForgetting)
}

// Categorizer runs Categorize over worker scratch it keeps between calls, so
// a policy that categorizes again at every retrain boundary grows its
// per-worker buffers once instead of on every call. The zero value is ready
// to use; a Categorizer is not safe for concurrent use.
type Categorizer struct {
	ws []scratch
}

// Categorize is the package-level Categorize over c's scratch. The call
// allocates what escapes it — Outcome.Profiles and each kept profile's
// Values and Links — plus the peer index and, on a call that needs more
// room than any before it, scratch; every per-function intermediate lives
// in scratch, and invoked-slot lists are read straight off training.Series.
// Nothing returned points into c.
func (c *Categorizer) Categorize(training *trace.Trace, cfg Config, disableCorrelation, disableForgetting bool) *Outcome {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(c.ws) < workers {
		c.ws = append(c.ws, make([]scratch, workers-len(c.ws))...)
	}
	ws := c.ws[:workers]

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
	// fans out over fixed chunks; each chunk owns its output slots and its
	// leftover list, and the chunk-order concatenation below restores the
	// exact serial ordering, making the outcome identical for any worker
	// count.
	chunks := (n + catChunk - 1) / catChunk
	indetFids := make([][]trace.FuncID, chunks)
	parallelDo(ws, chunks, func(w *scratch, k int) {
		lo, hi := k*catChunk, (k+1)*catChunk
		if hi > n {
			hi = n
		}
		for fid := lo; fid < hi; fid++ {
			s := training.Series[fid]
			if len(s) == 0 {
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
					p, ok = w.categorizeActivity(act, cfg)
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
	// Validation fires are the suffix of a series from valStart on, rebased
	// as they are read.
	parallelDo(ws, len(indeterminate), func(w *scratch, i int) {
		fid := indeterminate[i]
		s := training.Series[fid]
		act := w.extractWindow(s, 0, training.Slots)
		var links []Link
		var cands [maxLinks]fires
		if !disableCorrelation {
			links = w.mineLinks(fid, training.Series, apps[meta[fid].App], users[meta[fid].User], cfg)
			for j, l := range links {
				cands[j] = firesFrom(training.Series[l.Cand], valStart)
			}
		}
		out.Profiles[fid] = w.assignIndeterminate(act, firesFrom(s, valStart),
			training.Slots-valStart, links, cands[:len(links)], cfg)
	})
	return out
}

// extractWindow computes the series.Activity of the window [start,
// start+slots) of a sparse event series, reproducing
// series.Extract(dense[start:]) bit for bit in O(events in window) time.
// It relies on the trace.Series invariants: ascending unique slots,
// positive counts. The returned AT, AN and WT are views into w, valid until
// w extracts again.
func (w *scratch) extractWindow(s trace.Series, start, slots int) series.Activity {
	a := series.Activity{Slots: slots}
	evs := firesFrom(s, start).evs
	if len(evs) == 0 {
		a.LeadingIdle = slots
		return a
	}
	// A run needs at least one event, so len(evs) bounds all three lengths.
	n := len(evs)
	w.act = sized(w.act, 3*n)
	at, an, wt := w.act[:n], w.act[n:2*n], w.act[2*n:]

	first := int(evs[0].Slot) - start
	a.LeadingIdle = first
	runStart := first
	runSum := 0
	prev := first - 1 // window-relative slot of the previous event
	r := 0            // runs closed so far
	for _, e := range evs {
		slot := int(e.Slot) - start
		c := int(e.Count)
		a.Invocations += c
		if slot == prev+1 {
			runSum += c
		} else {
			at[r], an[r], wt[r] = prev-runStart+1, runSum, slot-prev-1
			r++
			runStart = slot
			runSum = c
		}
		prev = slot
	}
	at[r], an[r] = prev-runStart+1, runSum
	a.AT, a.AN = at[:r+1:r+1], an[:r+1:r+1]
	if r > 0 {
		a.WT = wt[:r:r]
	}
	a.TrailingIdle = slots - prev - 1
	return a
}

// seriesExtract is a full-window extraction annotated with per-run metadata
// so forgetting-suffix activities can be derived without re-scanning the
// events: a suffix shares the full window's WT/AT/AN tails (zero-copy when
// the cut lands between runs), and only a run straddling the cut needs its
// length and invocation sum recomputed.
type seriesExtract struct {
	act       series.Activity
	events    trace.Series
	runStarts []int32 // absolute first slot of each run
	runEvIdx  []int32 // index into events of each run's first event
	prefixInv []int   // prefixInv[r] = total invocations of runs [0, r)
	slots     int
}

// alwaysWarmFast evaluates the always-warm definition straight off the
// sparse series — every event is one active slot, so the active-slot count
// is len(s) and the summed inter-run idle is the span minus it — returning
// the profile without materializing an Activity. It is exact: the condition
// and the resulting profile match categorizeActivity's branch 1.
func alwaysWarmFast(s trace.Series, slots int, cfg Config) (Profile, bool) {
	active := len(s)
	if active == 0 {
		return Profile{}, false
	}
	totalWT := int(s[active-1].Slot-s[0].Slot) + 1 - active
	if active == slots ||
		(float64(totalWT) <= cfg.AlwaysWarmIdleFrac*float64(slots) &&
			float64(active) >= 0.5*float64(slots)) {
		runs := 1
		for i := 1; i < active; i++ {
			if s[i].Slot != s[i-1].Slot+1 {
				runs++
			}
		}
		return Profile{Type: TypeAlwaysWarm, WTCount: runs - 1}, true
	}
	return Profile{}, false
}

// extractMeta annotates an existing full-window Activity with the run
// metadata suffix derivation needs, held in w.
func (w *scratch) extractMeta(s trace.Series, slots int, act series.Activity) seriesExtract {
	runs := len(act.AT)
	w.runStarts = sized(w.runStarts, runs)
	w.runEvIdx = sized(w.runEvIdx, runs)
	w.prefixInv = sized(w.prefixInv, runs+1)
	se := seriesExtract{act: act, events: s, slots: slots,
		runStarts: w.runStarts, runEvIdx: w.runEvIdx, prefixInv: w.prefixInv}
	se.prefixInv[0] = 0
	r := 0
	for i, e := range s {
		if i == 0 || e.Slot != s[i-1].Slot+1 {
			se.runStarts[r] = e.Slot
			se.runEvIdx[r] = int32(i)
			se.prefixInv[r+1] = se.prefixInv[r] + se.act.AN[r]
			r++
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
		return series.Activity{Slots: slots, LeadingIdle: slots}
	}
	a := series.Activity{
		Slots:        slots,
		TrailingIdle: se.act.TrailingIdle,
		Invocations:  se.prefixInv[runs] - se.prefixInv[r],
	}
	if r+1 < runs {
		a.WT = se.act.WT[r:]
	}
	if int(se.runStarts[r]) >= start {
		// Clean cut between runs: the tails are shared as-is.
		a.LeadingIdle = int(se.runStarts[r]) - start
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
	dropped := 0
	for i := se.runEvIdx[r]; int(se.events[i].Slot) < start; i++ {
		dropped += int(se.events[i].Count)
	}
	a.AN[0] -= dropped
	a.Invocations -= dropped
	return a
}

// categorizeWithForgettingSparse is CategorizeWithForgetting fed from the
// sparse event series: the full window is extracted once (O(events)), and
// each forgetting suffix reuses its run structure instead of re-scanning.
// The run metadata is only built when the full window fails to categorize,
// which the majority of functions never reach.
func (w *scratch) categorizeWithForgettingSparse(s trace.Series, act series.Activity, cfg Config) (Profile, bool) {
	slots := act.Slots
	if p, ok := w.categorizeActivity(act, cfg); ok {
		return p, true
	}
	days := slots / cfg.SlotsPerDay
	if days/2 < 1 {
		return Profile{}, false
	}
	se := w.extractMeta(s, slots, act)
	for drop := 1; drop <= days/2; drop++ {
		if p, ok := w.categorizeActivity(se.suffix(w, drop*cfg.SlotsPerDay), cfg); ok {
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
func (w *scratch) mineLinks(target trace.FuncID, invoked []trace.Series, appPeers, userPeers []trace.FuncID, cfg Config) []Link {
	targetSlots := invoked[target]
	if len(targetSlots) == 0 {
		return nil
	}
	// A stamp left by an earlier call (the scratch outlives it) is below the
	// current generation; a generation about to wrap restarts on fresh
	// stamps.
	if len(w.seen) < len(invoked) || w.seenGen == math.MaxUint32 {
		w.seen, w.seenGen = make([]uint32, len(invoked)), 0
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
		maxFollows = float64((2*int(slack) + 1) * len(targetSlots))
	}

	accepted := w.accepted[:0]
	consider := func(cand trace.FuncID) {
		if seen[cand] == seenGen {
			return
		}
		seen[cand] = seenGen
		candSlots := invoked[cand]
		if len(candSlots) == 0 {
			return
		}
		// A lag's hit count can't exceed the candidate's invocation count,
		// so a candidate too quiet relative to the target can never clear
		// the COR threshold — skip the lag scan.
		if float64(len(candSlots)) < cfg.CORThreshold*float64(len(targetSlots)) {
			return
		}
		// The mirror image: a candidate too busy relative to the target can
		// never clear the precision gate below, whatever the lag.
		if maxFollows/float64(len(candSlots)) < cfg.LinkPrecision {
			return
		}
		lag, cor := BestLaggedCOR(targetSlots, candSlots, cfg.MaxLag)
		if cor < cfg.CORThreshold {
			return
		}
		// Precision gate: most of the candidate's fires must actually
		// precede a target invocation, otherwise pre-loading on its fires
		// wastes memory continuously.
		if FollowRate(candSlots, targetSlots, lag, slack) < cfg.LinkPrecision {
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
