package experiments

import (
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Comparison bundles the simulation results of SPES and every baseline over
// one workload — the single expensive computation Figures 8 through 12 and
// RQ2's overhead table read different projections of.
type Comparison struct {
	SPES    *sim.Result
	Results []*sim.Result // SPES first, then the baselines in paper order
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

// Comparison returns the workload's comparison of SPES against the paper's
// baselines in paper order, run through PolicyTable (FaaSCache at SPES's
// peak memory, Section V-A1) on first use — announced on out — and kept by
// the workload, so every figure rendered from it reads one run. Every run
// times its Ticks, so RQ2's overhead table reads that run too.
func (w *Workload) Comparison(out io.Writer) (*Comparison, error) {
	if w.comparison != nil {
		return w.comparison, nil
	}
	fmt.Fprintln(out, "simulating SPES and 5 baselines...")
	rows, err := w.PolicyTable([]string{"defuse", "hf", "ha", "fixed"}, []string{"faascache"}, 0, sim.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: comparison: %w", err)
	}
	c := &Comparison{SPES: rows[0].Result}
	for _, r := range rows {
		c.Results = append(c.Results, r.Result)
	}
	w.comparison = c
	return c, nil
}
