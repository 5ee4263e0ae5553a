package classify

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/series"
	"repro/internal/trace"
)

// The oracle is a deliberately naive per-function reference for Categorize,
// assembled only from the exported dense entry points: every function's
// series is expanded to per-slot counts, the deterministic definitions run
// over series.Extract of them, links are mined by a map-based scan over
// LaggedCOR, and AssignIndeterminate scores the leftovers. It shares no
// sparse extraction, no scratch and no prune with Categorize, so the two
// agreeing profile for profile is the proof that those are exact.

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
			p, ok = CategorizeDeterministic(dense[fid], cfg)
		} else {
			p, ok = CategorizeWithForgetting(dense[fid], cfg)
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
		profiles[fid] = AssignIndeterminate(dense[fid], valStart, links, candFires, cfg)
	}
	return profiles
}

// oracleLinks mines the target's links by brute force: every other function
// sharing its application or user is a candidate, each lag is scored by its
// own LaggedCOR pass, and the follow rate is a hash-set membership scan.
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
			if c := LaggedCOR(invoked[target], invoked[cand], lag); c > bestCOR {
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
					if !p.Type.Deterministic() && p.Type != TypeUnknown {
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
