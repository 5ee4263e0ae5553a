package classify

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/series"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The oracle is a deliberately naive per-function reference for Categorize,
// assembled from the dense helpers below: every function's series is
// expanded to per-slot counts, the deterministic definitions run over
// series.Extract of them (oracleDeterministic, oracleWithForgetting), links
// are mined by a map-based scan over one laggedCOR pass per lag, and
// oracleAssign scores the leftovers. It shares no sparse extraction, no
// scratch reuse, no lag-scan kernel and no prune with Categorize, so the two
// agreeing profile for profile is the proof that those are exact.

// oracleDeterministic applies the five deterministic definitions of Section
// IV-A in priority order to a dense invocation sequence. ok is false when
// none match.
func oracleDeterministic(counts []int, cfg Config) (Profile, bool) {
	var w scratch
	return w.categorizeActivity(series.Extract(counts), cfg)
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
	cands := make([]fires, len(candFires))
	for i, slots := range candFires {
		evs := make(trace.Series, len(slots))
		for k, s := range slots {
			evs[k] = trace.Event{Slot: s, Count: 1}
		}
		cands[i] = fires{evs: evs}
	}
	var w scratch
	return w.assignIndeterminate(act, fires{evs: valInvoked}, len(counts)-valStart, links, cands, cfg)
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
// them: each function's full-window WT sequence for sortedInto, and every
// indeterminate target's peers that pass both of mineLinks' prunes for the
// lag scan. profiles are the window's outcome.
type kernelPaths struct{ bitset, merge, counting, comparison int }

func (k *kernelPaths) add(tr *trace.Trace, profiles []Profile, cfg Config) {
	var w scratch
	for _, s := range tr.Series {
		wts := w.extractWindow(s, 0, tr.Slots).WT
		if len(wts) == 0 {
			continue
		}
		if countingSortPays(len(wts), uint(slices.Max(wts))-uint(slices.Min(wts))) {
			k.counting++
		} else {
			k.comparison++
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
		ls.reset(target)
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

// TestCategorizeMatchesOracleAtRetrainBoundaries holds Categorize to the
// oracle on the windows online re-categorization builds: every 720-slot
// boundary of a two-day simulation after four training days, for the
// stationary baseline and every library scenario, each window as long as
// the training trace (sim.BuildRetrainWindow, the window the simulator hands
// a Retrainer). It also checks that those windows drive both lag-scan
// kernels and both sort paths, so the agreement covers each of them.
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
			want := oracleCategorize(win, cfg, false, false)
			paths.add(win, want, cfg)
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
	t.Logf("kernel paths: lag scan %d bitset, %d merge; sort %d counting, %d comparison",
		paths.bitset, paths.merge, paths.counting, paths.comparison)
	if paths.bitset == 0 || paths.merge == 0 || paths.counting == 0 || paths.comparison == 0 {
		t.Fatalf("a kernel path was never taken: %+v", paths)
	}
}
