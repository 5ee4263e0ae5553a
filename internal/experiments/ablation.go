package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
)

// variant is one row of an ablation figure: a name and the switch it flips
// on the full SPES configuration (nil for full SPES itself).
type variant struct {
	name    string
	disable func(*core.Config)
}

// ablation simulates full SPES and each variant over the settings' workload
// and renders Q3-CSR, memory and WMT relative to full SPES.
func ablation(w io.Writer, s Settings, title string, variants []variant, footer ...string) error {
	wl, err := Open(s, Input{})
	if err != nil {
		return err
	}
	norm := func(v, b float64) string {
		if b == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.4f", v/b)
	}
	tab := report.NewTable("Variant", "Q3-CSR", "Norm. memory", "Norm. WMT")
	var full *sim.Result
	for _, v := range append([]variant{{name: "SPES"}}, variants...) {
		cfg := s.SPES
		if v.disable != nil {
			v.disable(&cfg)
		}
		r, err := wl.Run(core.New(cfg), sim.Options{})
		if err != nil {
			return err
		}
		if full == nil {
			full = r
		}
		tab.AddRow(v.name,
			fmt.Sprintf("%.4f", r.QuantileCSR(0.75)),
			norm(r.MeanLoaded(), full.MeanLoaded()),
			norm(float64(r.TotalWMT), float64(full.TotalWMT)))
	}
	fmt.Fprintln(w, title)
	tab.Render(w)
	for _, line := range footer {
		fmt.Fprintln(w, line)
	}
	return nil
}

// Fig14 reproduces the inter-function correlation ablation: full SPES vs
// "w/o Corr" (no offline correlated type) vs "w/o Online-Corr" (unseen
// functions stay unknown).
func Fig14(w io.Writer, s Settings) error {
	return ablation(w, s, "Figure 14 — impact of inter-function correlation designs",
		[]variant{
			{"w/o Corr", func(c *core.Config) { c.DisableCorrelation = true }},
			{"w/o Online-Corr", func(c *core.Config) { c.DisableOnlineCorr = true }},
		},
		"(expected shape: w/o Corr hurts more than w/o Online-Corr — the",
		" correlated population outnumbers the unseen one)")
}

// Fig15 reproduces the concept-shift ablation: full SPES vs "w/o
// Forgetting" vs "w/o Adjusting".
func Fig15(w io.Writer, s Settings) error {
	return ablation(w, s, "Figure 15 — impact of the adaptive designs",
		[]variant{
			{"w/o Forgetting", func(c *core.Config) { c.DisableForgetting = true }},
			{"w/o Adjusting", func(c *core.Config) { c.DisableAdjusting = true }},
		},
		"(expected shape: forgetting matters more — it re-categorizes whole",
		" functions, adjusting only refines predictive values)")
}
