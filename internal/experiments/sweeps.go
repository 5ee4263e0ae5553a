package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
)

// sweepPoint is one configuration of a Figure 13 parameter sweep: the
// rendered parameter value, the SPES config to run, and whether this point
// is the normalization baseline for the memory column.
type sweepPoint struct {
	label    string
	cfg      core.Config
	baseline bool
}

// runConfigs simulates SPES at each configuration over the workload as one
// 4-shard RunAll, which partitions the workload once for all of them
// (bit-identical to unsharded runs); results in input order. It is the run
// step of the sweeps and the ablations.
func runConfigs(wl *Workload, cfgs []core.Config) ([]*sim.Result, error) {
	policies := make([]sim.Policy, len(cfgs))
	for i, cfg := range cfgs {
		policies[i] = core.New(cfg)
	}
	return wl.RunAll(policies, sim.Options{Shards: 4})
}

// runNormalizedSweep runs the points through runConfigs and renders a
// (param, normalized memory, Q3-CSR) table. Memory is normalized to the
// baseline point, which need not come first; footer lines follow the
// table.
func runNormalizedSweep(w io.Writer, wl *Workload, title, header string, pts []sweepPoint, footer ...string) error {
	cfgs := make([]core.Config, len(pts))
	for i, p := range pts {
		cfgs[i] = p.cfg
	}
	results, err := runConfigs(wl, cfgs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, title)
	tab := report.NewTable(header, "Norm. memory", "Q3-CSR")

	var baseMem float64
	baseLabel := ""
	for i, p := range pts {
		if p.baseline {
			baseMem = results[i].MeanLoaded()
			baseLabel = p.label
		}
	}
	for i, p := range pts {
		mem := results[i].MeanLoaded()
		if baseMem > 0 {
			mem /= baseMem
		}
		tab.AddRow(p.label, fmt.Sprintf("%.4f", mem), fmt.Sprintf("%.4f", results[i].QuantileCSR(0.75)))
	}
	tab.Render(w)
	if baseMem > 0 {
		fmt.Fprintf(w, "(memory normalized to %s=%s: 1.0000 = %.1f mean loaded instances)\n",
			header, baseLabel, baseMem)
	}
	for _, line := range footer {
		fmt.Fprintln(w, line)
	}
	return nil
}

// Fig13a sweeps theta_prewarm over the paper's values {1, 2, 3, 5, 10} and
// reports (normalized memory, Q3-CSR) per point — the trade-off line of
// Figure 13(a). Memory is normalized to the theta=2 baseline, as the paper
// does.
func Fig13a(w io.Writer, wl *Workload) error {
	var pts []sweepPoint
	for _, theta := range []int{1, 2, 3, 5, 10} {
		cfg := wl.Settings.SPES
		cfg.Classify.ThetaPrewarm = theta
		pts = append(pts, sweepPoint{label: fmt.Sprint(theta), cfg: cfg, baseline: theta == 2})
	}
	return runNormalizedSweep(w, wl,
		"Figure 13(a) — trade-off under different theta_prewarm", "theta_prewarm", pts,
		"(expected shape: memory up, Q3-CSR down, roughly linearly)")
}

// Fig13b sweeps the theta_givenup scaler over {1..5} as Figure 13(b) does:
// the original per-type values are multiplied by the scaler. Memory is
// normalized to the scaler=1 point (the paper's original settings).
func Fig13b(w io.Writer, wl *Workload) error {
	var pts []sweepPoint
	for scaler := 1; scaler <= 5; scaler++ {
		cfg := wl.Settings.SPES
		cfg.Classify.ThetaGivenupDense = 5 * scaler
		cfg.Classify.ThetaGivenupOther = 1 * scaler
		pts = append(pts, sweepPoint{label: fmt.Sprint(scaler), cfg: cfg, baseline: scaler == 1})
	}
	return runNormalizedSweep(w, wl,
		"Figure 13(b) — trade-off under scaled theta_givenup", "Scaler", pts,
		"(expected shape: larger scalers buy little cold-start reduction —",
		" idle functions should be evicted promptly)")
}
