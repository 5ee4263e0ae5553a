package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Comparison bundles the simulation results of SPES and every baseline over
// one workload — the single expensive computation Figures 8 through 12
// read different projections of.
type Comparison struct {
	SPES     *sim.Result
	Results  []*sim.Result // SPES first, then the baselines in paper order
	SimTrace *trace.Trace  // the simulated window (metadata for app-wise views)
}

// AppWiseCSRs aggregates a result's cold starts to application granularity:
// one CSR per application with at least one invocation. The paper evaluates
// Hybrid-Application this way ("application-wise for HA", Section V-A2).
func AppWiseCSRs(res *sim.Result, tr *trace.Trace) []float64 {
	type agg struct{ cold, invoked int64 }
	byApp := make(map[string]*agg)
	for fid, m := range res.PerFunc {
		if m.InvokedSlot == 0 {
			continue
		}
		app := tr.Functions[fid].App
		a := byApp[app]
		if a == nil {
			a = &agg{}
			byApp[app] = a
		}
		a.cold += m.ColdStarts
		a.invoked += m.InvokedSlot
	}
	out := make([]float64, 0, len(byApp))
	for _, a := range byApp {
		out = append(out, float64(a.cold)/float64(a.invoked))
	}
	return out
}

// RunComparison simulates SPES and the paper's baselines in paper order
// through PolicyTable (FaaSCache at SPES's peak memory, Section V-A1).
// Overhead timing is enabled so RQ2's overhead discussion can be reproduced
// from the same run.
func RunComparison(w *Workload) (*Comparison, error) {
	rows, err := w.PolicyTable([]string{"defuse", "hf", "ha", "fixed"}, []string{"faascache"}, 0,
		sim.Options{MeasureOverhead: true})
	if err != nil {
		return nil, fmt.Errorf("experiments: comparison: %w", err)
	}
	c := &Comparison{SPES: rows[0].Result, SimTrace: w.Sim}
	for _, r := range rows {
		c.Results = append(c.Results, r.Result)
	}
	return c, nil
}

// comparisonCache shares the expensive comparison between the per-figure
// runners invoked from one binary, keyed by cacheKey.
var comparisonCache = map[uint64]*Comparison{}

// cacheKey hashes everything that determines a comparison: the generated
// workload (scale, seed, trigger mix, scenario), the split and the SPES
// configuration. Execution knobs (Shards, CacheDir) never change a result.
func (s Settings) cacheKey() uint64 {
	return sim.HashConfig(struct {
		Workload  trace.GeneratorConfig
		TrainDays int
		SPES      core.Config
	}{s.GeneratorConfig(), s.TrainDays, s.SPES})
}

// SharedComparison returns a cached comparison for the settings, running it
// on first use.
func SharedComparison(s Settings, out io.Writer) (*Comparison, error) {
	if c, ok := comparisonCache[s.cacheKey()]; ok {
		return c, nil
	}
	fmt.Fprintf(out, "building workload: %d functions, %d days (%d train)...\n",
		s.Functions, s.Days, s.TrainDays)
	w, err := Open(s, Input{})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, "simulating SPES and 5 baselines...")
	c, err := RunComparison(w)
	if err != nil {
		return nil, err
	}
	comparisonCache[s.cacheKey()] = c
	return c, nil
}
