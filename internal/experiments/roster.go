package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/sim"
)

// roster is every policy the binaries can name, at the paper's default
// configuration (Section V-A2): the 10-minute fixed keep-alive, and the
// hybrid histogram and Defuse at their own papers' settings, which are
// constants of internal/baselines. SPES takes its config and the two
// capacity-coupled baselines their pool size from the caller.
var roster = []struct {
	name  string
	build func(spes core.Config, capacity int) sim.Policy
}{
	{"spes", func(c core.Config, _ int) sim.Policy { return core.New(c) }},
	{"fixed", func(core.Config, int) sim.Policy { return baselines.NewFixedKeepAlive(10) }},
	{"hf", func(core.Config, int) sim.Policy { return baselines.NewHybridFunction() }},
	{"ha", func(core.Config, int) sim.Policy { return baselines.NewHybridApplication() }},
	{"defuse", func(core.Config, int) sim.Policy { return baselines.NewDefuse() }},
	{"faascache", func(_ core.Config, n int) sim.Policy { return baselines.NewFaaSCache(n) }},
	{"lcs", func(_ core.Config, n int) sim.Policy { return baselines.NewLCS(n) }},
}

// PolicyNames lists the roster in display order.
func PolicyNames() []string {
	names := make([]string, len(roster))
	for i, e := range roster {
		names[i] = e.name
	}
	return names
}

// NewPolicy builds the roster policy called name. spes configures SPES and
// capacity sizes the warm pool of faascache and lcs; the other policies
// ignore both.
func NewPolicy(name string, spes core.Config, capacity int) (sim.Policy, error) {
	for _, e := range roster {
		if e.name == name {
			return e.build(spes, capacity), nil
		}
	}
	return nil, fmt.Errorf("unknown policy %q (have %s)", name, strings.Join(PolicyNames(), ", "))
}

// Row is one labeled line of a PolicyTable.
type Row struct {
	Label  string
	Result *sim.Result
}

// PolicyTable runs the paper's comparison protocol (Section V-A1) over the
// workload, the one place it is written down: SPES at w.Settings.SPES
// beside the named per-function baselines; when retrainEvery > 0 a
// "SPES+retrain/N" row re-categorizing online at that period; then the
// named capacity baselines, each budgeted at the memory SPES actually used
// — the SPES row's MaxLoaded, at least 1 — which is why SPES runs first.
func (w *Workload) PolicyTable(perFunction, capped []string, retrainEvery int, opts sim.Options) ([]Row, error) {
	policies := make([]sim.Policy, 0, 1+len(perFunction))
	for _, name := range append([]string{"spes"}, perFunction...) {
		p, err := NewPolicy(name, w.Settings.SPES, 0)
		if err != nil {
			return nil, err
		}
		policies = append(policies, p)
	}
	results, err := w.RunAll(policies, opts)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, 0, len(results)+1+len(capped))
	for _, r := range results {
		rows = append(rows, Row{r.Policy, r})
	}
	if retrainEvery > 0 {
		ro := opts
		ro.RetrainEvery = retrainEvery
		r, err := w.Run(core.New(w.Settings.SPES), ro)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{fmt.Sprintf("SPES+retrain/%d", retrainEvery), r})
	}
	pool := max(results[0].MaxLoaded, 1)
	for _, name := range capped {
		p, err := NewPolicy(name, w.Settings.SPES, pool)
		if err != nil {
			return nil, err
		}
		r, err := w.Run(p, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{fmt.Sprintf("%s/cap=%d", r.Policy, pool), r})
	}
	return rows, nil
}
