package classify

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/series"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The oracle is a deliberately naive per-function reference for Categorize,
// assembled from the dense helpers below: every function's series is
// expanded to per-slot counts, the deterministic definitions run over
// series.Extract of them (oracleDeterministic, oracleWithForgetting) with
// every WT statistic taken from a float copy through the stats package's
// sorting forms, links are mined by a map-based scan over one laggedCOR pass
// per lag, and oracleAssign scores the leftovers. It shares no sparse
// extraction, no WT distribution, no integer CV test, no scratch reuse, no
// lag-scan kernel and no prune with Categorize, so the two agreeing profile
// for profile is the proof that those are exact.

// oracleDeterministic applies the five deterministic definitions of Section
// IV-A in priority order to a dense invocation sequence. ok is false when
// none match. Table I tests the regular and appro-regular conditions on
// "(Processed)" WTs, so both run over the slack cascade: the raw WTs, the
// end-trimmed WTs, and the merge of the last of those when it shortened it.
func oracleDeterministic(counts []int, cfg Config) (Profile, bool) {
	act := series.Extract(counts)

	// 1. Always warm.
	if act.Invocations > 0 && (act.InvokedEverySlot() ||
		(float64(act.TotalWT()) <= cfg.AlwaysWarmIdleFrac*float64(act.Slots) &&
			float64(act.ActiveSlots()) >= 0.5*float64(act.Slots))) {
		return Profile{Type: TypeAlwaysWarm, WTCount: len(act.WT)}, true
	}

	var variants [][]int
	if len(act.WT) > 0 {
		variants = append(variants, act.WT)
	}
	if trimmed := series.TrimEnds(act.WT); len(trimmed) > 0 {
		variants = append(variants, trimmed)
	}
	if len(variants) > 0 {
		base := variants[len(variants)-1]
		if merged := series.MergeSmallWTs(base, cfg.SlackCloseTol, cfg.SlackSmallFrac); len(merged) > 0 && len(merged) != len(base) {
			variants = append(variants, merged)
		}
	}

	// 2. Regular: P95 - P5 within the spread, or CV at most the bound.
	for _, wts := range variants {
		if len(wts) < cfg.MinWTs {
			continue
		}
		f := stats.IntsToFloats(wts)
		if stats.Quantile(f, 0.95)-stats.Quantile(f, 0.05) <= cfg.RegularSpread || oracleCV(f) <= cfg.RegularCV {
			median := stats.Median(f)
			return Profile{Type: TypeRegular, Values: []int{int(median + 0.5)},
				MedianWT: median, StdWT: stats.StdDev(f), WTCount: len(wts)}, true
		}
	}

	// 3. Appro-regular: the top-n modes cover the coverage share.
	for _, wts := range variants {
		if len(wts) < cfg.ApproMinWTs {
			continue
		}
		table := stats.FrequencyTable(wts)
		top := table[:min(cfg.ApproModes, len(table))]
		cov, modes := 0, make([]int, 0, len(top))
		for _, mc := range top {
			cov += mc.Count
			modes = append(modes, mc.Value)
		}
		if float64(cov) >= cfg.ApproCoverage*float64(len(wts)) {
			f := stats.IntsToFloats(wts)
			return Profile{Type: TypeApproRegular, Values: modes,
				MedianWT: stats.Median(f), StdWT: stats.StdDev(f), WTCount: len(wts)}, true
		}
	}

	// 4. Dense: P90 of the raw WTs at most the constant.
	if len(act.WT) >= cfg.DenseMinWTs {
		f := stats.IntsToFloats(act.WT)
		if stats.Quantile(f, 0.9) <= cfg.DenseP90Max {
			lo, hi, _ := stats.TableRange(stats.FrequencyTable(act.WT), cfg.DenseModes)
			return Profile{Type: TypeDense, RangeLo: lo, RangeHi: hi,
				MedianWT: stats.Median(f), StdWT: stats.StdDev(f), WTCount: len(act.WT)}, true
		}
	}

	// 5. Successive: at least two waves, each long and busy enough.
	if len(act.AT) >= 2 && slices.Min(act.AT) >= cfg.SuccessiveMinAT && slices.Min(act.AN) >= cfg.SuccessiveMinAN {
		return Profile{Type: TypeSuccessive, WTCount: len(act.WT)}, true
	}
	return Profile{}, false
}

// oracleCV is the coefficient of variation of f as the paper states it,
// StdDev / Mean, with a zero mean reading 0 for an all-zero sequence and
// +Inf otherwise.
func oracleCV(f []float64) float64 {
	m, sd := stats.Mean(f), stats.StdDev(f)
	if m == 0 {
		if sd == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return sd / m
}

// oracleWithForgetting first tries the full window, then applies the
// forgetting rule of Section IV-B1: drop the oldest day and re-test, out to
// half the observation window. ok is false when no suffix matches.
func oracleWithForgetting(counts []int, cfg Config) (Profile, bool) {
	if p, ok := oracleDeterministic(counts, cfg); ok {
		return p, true
	}
	days := len(counts) / cfg.SlotsPerDay
	for drop := 1; drop <= days/2; drop++ {
		window := counts[drop*cfg.SlotsPerDay:]
		if p, ok := oracleDeterministic(window, cfg); ok {
			return p, true
		}
	}
	return Profile{}, false
}

// oracleAssign scores the three supplementary strategies for one function
// and returns its profile. counts is the function's full training sequence;
// valStart is the slot where the validation slice begins; links holds its
// accepted correlations (already thresholded); candFires the
// validation-window invoked slots of each linked candidate.
func oracleAssign(counts []int, valStart int, links []Link, candFires [][]int32, cfg Config) Profile {
	act := series.Extract(counts)
	var valInvoked trace.Series
	for _, s := range series.InvokedSlots(counts[valStart:]) {
		valInvoked = append(valInvoked, trace.Event{Slot: int32(s), Count: 1})
	}
	cands := make([]trace.Parts, len(candFires))
	for i, slots := range candFires {
		evs := make(trace.Series, len(slots))
		for k, s := range slots {
			evs[k] = trace.Event{Slot: s, Count: 1}
		}
		cands[i] = one(evs)
	}
	var w scratch
	return w.assignIndeterminate(act, one(valInvoked), len(counts)-valStart, links, cands, cfg)
}

// laggedCOR returns the fraction of the target's invoked slots t for which
// the candidate was invoked at exactly t-lag. Lag 0 reduces to COR.
func laggedCOR(target, candidate []int32, lag int32) float64 {
	if len(target) == 0 {
		return 0
	}
	hits := 0
	j := 0
	for _, t := range target {
		want := t - lag
		for j < len(candidate) && candidate[j] < want {
			j++
		}
		if j < len(candidate) && candidate[j] == want {
			hits++
		}
	}
	return float64(hits) / float64(len(target))
}

// oracleCategorize is the reference outcome for one training trace.
func oracleCategorize(tr *trace.Trace, cfg Config, disableCorrelation, disableForgetting bool) []Profile {
	n := tr.NumFunctions()
	valStart := int(float64(tr.Slots) * (1 - cfg.ValidationFrac))
	if valStart <= 0 || valStart >= tr.Slots {
		valStart = tr.Slots / 2
	}
	dense := make([][]int, n)
	invoked := make([][]int32, n)  // full window
	valFires := make([][]int32, n) // validation window, rebased to its start
	for fid := 0; fid < n; fid++ {
		dense[fid] = tr.Series[fid].Dense(tr.Slots)
		for _, s := range series.InvokedSlots(dense[fid]) {
			invoked[fid] = append(invoked[fid], int32(s))
			if s >= valStart {
				valFires[fid] = append(valFires[fid], int32(s-valStart))
			}
		}
	}

	profiles := make([]Profile, n)
	for fid := 0; fid < n; fid++ {
		if len(invoked[fid]) == 0 {
			profiles[fid] = Profile{Type: TypeUnknown}
			continue
		}
		var p Profile
		var ok bool
		if disableForgetting {
			p, ok = oracleDeterministic(dense[fid], cfg)
		} else {
			p, ok = oracleWithForgetting(dense[fid], cfg)
		}
		if ok {
			profiles[fid] = p
			continue
		}
		var links []Link
		var candFires [][]int32
		if !disableCorrelation {
			links = oracleLinks(tr, fid, invoked, cfg)
			for _, l := range links {
				candFires = append(candFires, valFires[l.Cand])
			}
		}
		profiles[fid] = oracleAssign(dense[fid], valStart, links, candFires, cfg)
	}
	return profiles
}

// oracleLinks mines the target's links by brute force: every other function
// sharing its application or user is a candidate, each lag is scored by its
// own laggedCOR pass, and the follow rate is a hash-set membership scan.
func oracleLinks(tr *trace.Trace, target int, invoked [][]int32, cfg Config) []Link {
	type scored struct {
		link Link
		cor  float64
	}
	targetSet := make(map[int32]bool, len(invoked[target]))
	for _, t := range invoked[target] {
		targetSet[t] = true
	}
	slack := int32(cfg.ValidationPrewarm)
	if slack <= 0 {
		slack = int32(cfg.ThetaPrewarm)
	}
	meta := tr.Functions
	var accepted []scored
	for cand := range meta {
		if cand == target || (meta[cand].App != meta[target].App && meta[cand].User != meta[target].User) {
			continue
		}
		if len(invoked[cand]) == 0 {
			continue
		}
		bestLag, bestCOR := int32(0), 0.0
		for lag := int32(1); lag <= cfg.MaxLag; lag++ {
			if c := laggedCOR(invoked[target], invoked[cand], lag); c > bestCOR {
				bestLag, bestCOR = lag, c
			}
		}
		if bestCOR < cfg.CORThreshold {
			continue
		}
		follows := 0
		for _, c := range invoked[cand] {
			for d := -slack; d <= slack; d++ {
				if targetSet[c+bestLag+d] {
					follows++
					break
				}
			}
		}
		if float64(follows)/float64(len(invoked[cand])) < cfg.LinkPrecision {
			continue
		}
		accepted = append(accepted, scored{Link{Cand: int32(cand), Lag: bestLag}, bestCOR})
	}
	sort.SliceStable(accepted, func(i, j int) bool {
		if accepted[i].cor != accepted[j].cor {
			return accepted[i].cor > accepted[j].cor
		}
		return accepted[i].link.Cand < accepted[j].link.Cand
	})
	if len(accepted) > 5 {
		accepted = accepted[:5]
	}
	links := make([]Link, len(accepted))
	for i, a := range accepted {
		links[i] = a.link
	}
	return links
}

// oracleWorkloads generates the stationary workload and every library
// scenario at two seeds. Seed 1 hands Categorize the whole trace, so the
// disruptive phases (positioned from day 2 on) are inside the window it
// categorizes; seed 2 hands it the first four days, the shape a train/sim
// split produces.
func oracleWorkloads(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	const functions, days, simStart = 320, 6, 2 * 1440
	names := append([]string{"stationary"}, trace.ScenarioNames()...)
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	out := make(map[string]*trace.Trace)
	for _, name := range names {
		for _, seed := range seeds {
			gcfg := trace.DefaultGeneratorConfig(functions, days, 100+seed)
			if name != "stationary" {
				sc, err := trace.NamedScenario(name, simStart, days*1440)
				if err != nil {
					t.Fatal(err)
				}
				sc.Seed = seed
				gcfg.Scenario = sc.Normalize()
			}
			tr, err := trace.Generate(gcfg)
			if err != nil {
				t.Fatal(err)
			}
			if seed == 2 {
				tr, _ = tr.Split(4 * 1440)
			}
			out[fmt.Sprintf("%s/seed%d", name, seed)] = tr
		}
	}
	return out
}

func TestCategorizeMatchesOracle(t *testing.T) {
	indeterminate, correlated := 0, 0
	for name, tr := range oracleWorkloads(t) {
		for _, noCorr := range []bool{false, true} {
			for _, noForget := range []bool{false, true} {
				cfg := DefaultConfig()
				want := oracleCategorize(tr, cfg, noCorr, noForget)
				for _, p := range want {
					if !deterministic(p.Type) && p.Type != TypeUnknown {
						indeterminate++
					}
					if p.Type == TypeCorrelated {
						correlated++
					}
				}
				for _, workers := range []int{1, 4} {
					cfg.Workers = workers
					got := Categorize(tr, cfg, noCorr, noForget).Profiles
					if reflect.DeepEqual(got, want) {
						continue
					}
					if len(got) != len(want) {
						t.Fatalf("%s noCorr=%v noForget=%v workers=%d: %d profiles, want %d",
							name, noCorr, noForget, workers, len(got), len(want))
					}
					for fid := range want {
						if !reflect.DeepEqual(got[fid], want[fid]) {
							t.Fatalf("%s noCorr=%v noForget=%v workers=%d: f%d = %+v, oracle %+v",
								name, noCorr, noForget, workers, fid, got[fid], want[fid])
						}
					}
				}
			}
		}
	}
	// The comparison only means something if the workloads reach the
	// indeterminate pass and the link miner.
	t.Logf("oracle profiles: %d indeterminate, %d of them correlated", indeterminate, correlated)
	if indeterminate == 0 || correlated == 0 {
		t.Fatalf("oracle workloads too tame: %d indeterminate, %d correlated profiles", indeterminate, correlated)
	}
}

// kernelPaths counts, over one window, the paths the categorizer's kernels
// choose, by asking the pure choosers about the inputs Categorize hands
// them: each function's full-window WT sequence for distInto's builder and,
// where its P95-P5 spread leaves the regular test to the CV, for the
// integer CV verdict (cv[cvFail], cv[cvPass], cv[cvFloat]); and every
// indeterminate target's peers that pass both of mineLinks' prunes for the
// lag scan. profiles are the window's outcome.
type kernelPaths struct {
	bitset, merge, counting, comparison int
	cv                                  [3]int
}

func (k *kernelPaths) add(tr *trace.Trace, profiles []Profile, cfg Config) {
	var w scratch
	for _, s := range tr.Series {
		wts := w.extractWindow(one(s), 0, tr.Slots).WT
		if len(wts) == 0 {
			continue
		}
		if countingSortPays(len(wts), uint(slices.Max(wts))-uint(slices.Min(wts))) {
			k.counting++
		} else {
			k.comparison++
		}
		if d := w.distInto(0, wts); len(wts) >= cfg.MinWTs && d.quantile(0.95)-d.quantile(0.05) > cfg.RegularSpread {
			k.cv[d.cvAtMost(cfg.RegularCV)]++
		}
	}
	apps, users := tr.AppFunctions(), tr.UserFunctions()
	slack := cfg.ValidationPrewarm
	for fid, p := range profiles {
		target := tr.Series[fid]
		if deterministic(p.Type) || p.Type == TypeUnknown || len(target) == 0 {
			continue
		}
		var ls lagScanner
		ls.reset(one(target))
		meta := tr.Functions[fid]
		seen := map[trace.FuncID]bool{trace.FuncID(fid): true}
		for _, c := range append(slices.Clone(apps[meta.App]), users[meta.User]...) {
			cand := tr.Series[c]
			if seen[c] || len(cand) == 0 {
				continue
			}
			seen[c] = true
			if float64(len(cand)) < cfg.CORThreshold*float64(len(target)) ||
				float64((2*slack+1)*len(target))/float64(len(cand)) < cfg.LinkPrecision {
				continue
			}
			if bitsetLagScanPays(len(target), len(cand), ls.words, cfg.MaxLag) {
				k.bitset++
			} else {
				k.merge++
			}
		}
	}
}

// plantCVBand adds to tr a function of its own application and user whose
// WTs alternate 99 and 101 slots forty times: CV exactly 0.01, which the
// integer CV test leaves to the float formula. On a view the function has
// no head part, and its events are stored at the view's Base.
func plantCVBand(tr *trace.Trace) {
	var evs []trace.Event
	for slot, i := int32(0), 0; i <= 40; i++ {
		evs = append(evs, trace.Event{Slot: slot + tr.Base, Count: 1})
		slot += 100 + 2*int32(i%2)
	}
	tr.Functions, tr.Series = slices.Clip(tr.Functions), slices.Clip(tr.Series)
	tr.AddFunction("cv-band", "cv-band", "cv-band", trace.TriggerTimer, evs)
}

// TestCategorizeMatchesOracleAtRetrainBoundaries holds Categorize to the
// oracle on the windows online re-categorization builds: every 720-slot
// boundary of a two-day simulation after four training days, for the
// stationary baseline and every library scenario, each window as long as
// the training trace, plus a planted function on the CV bound
// (plantCVBand). Categorize reads the view the simulator hands a Retrainer
// (sim.BuildRetrainWindow); the oracle reads the same window copied by
// stitchWindow, so it shares no read path with the categorizer. It also
// checks that those windows drive both lag-scan kernels, both distribution
// builders and all three CV verdicts, so the agreement covers each of
// them.
func TestCategorizeMatchesOracleAtRetrainBoundaries(t *testing.T) {
	const functions, days, trainDays, every = 240, 6, 4, 720
	boundaries := []int{every, 2 * every, 3 * every}
	if testing.Short() {
		boundaries = boundaries[1:2]
	}
	cfg := DefaultConfig()
	var paths kernelPaths
	for i, name := range trace.ScenarioNames() {
		gcfg := trace.DefaultGeneratorConfig(functions, days, int64(40+i))
		sc, err := trace.NamedScenario(name, trainDays*1440, days*1440)
		if err != nil {
			t.Fatal(err)
		}
		sc.Seed = int64(i + 1)
		gcfg.Scenario = sc.Normalize()
		full, err := trace.Generate(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		train, simTr := full.Split(trainDays * 1440)
		for _, at := range boundaries {
			win := sim.BuildRetrainWindow(train, simTr, at, train.Slots)
			ref := stitchWindow(train, simTr, at, train.Slots)
			plantCVBand(win)
			plantCVBand(ref)
			want := oracleCategorize(ref, cfg, false, false)
			paths.add(ref, want, cfg)
			for _, workers := range []int{1, 4} {
				wcfg := cfg
				wcfg.Workers = workers
				got := Categorize(win, wcfg, false, false).Profiles
				for fid := range want {
					if !reflect.DeepEqual(got[fid], want[fid]) {
						t.Fatalf("%s at slot %d, workers %d: f%d = %+v, oracle %+v",
							name, at, workers, fid, got[fid], want[fid])
					}
				}
			}
		}
	}
	t.Logf("kernel paths: lag scan %d bitset, %d merge; distribution %d counting, %d comparison; CV %d fail, %d pass, %d float",
		paths.bitset, paths.merge, paths.counting, paths.comparison, paths.cv[cvFail], paths.cv[cvPass], paths.cv[cvFloat])
	if paths.bitset == 0 || paths.merge == 0 || paths.counting == 0 || paths.comparison == 0 || slices.Contains(paths.cv[:], 0) {
		t.Fatalf("a kernel path was never taken: %+v", paths)
	}
}
