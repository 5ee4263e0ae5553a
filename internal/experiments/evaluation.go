package experiments

import (
	"fmt"
	"io"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig8 reproduces the cold-start-rate CDF comparison: one quantile summary
// per policy plus the headline Q3-CSR improvements.
func Fig8(w io.Writer, s Settings) error {
	c, err := SharedComparison(s, w)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 8 — function-wise cold-start rate distribution (lower is better)")
	for _, r := range c.Results {
		report.CDFSummary(w, r.Policy, r.CSRs())
	}
	spesQ3 := c.SPES.QuantileCSR(0.75)
	fmt.Fprintf(w, "\nQ3-CSR (75th percentile) improvements of SPES (%.4f):\n", spesQ3)
	tab := report.NewTable("Baseline", "Q3-CSR", "SPES reduction", "Warm functions")
	for _, r := range c.Results[1:] {
		q3 := r.QuantileCSR(0.75)
		red := "n/a"
		if q3 > 0 {
			red = fmt.Sprintf("%.2f%%", 100*(q3-spesQ3)/q3)
		}
		tab.AddRow(r.Policy, fmt.Sprintf("%.4f", q3), red,
			fmt.Sprintf("%.2f%%", 100*r.WarmFraction()))
	}
	tab.Render(w)
	fmt.Fprintf(w, "SPES warm (never-cold) functions: %.2f%% (paper: 57.99%%)\n",
		100*c.SPES.WarmFraction())
	// The paper evaluates Hybrid-Application at application granularity
	// ("application-wise for HA"); its function-wise numbers above are
	// flattered by busy app-mates keeping whole applications resident.
	for _, r := range c.Results {
		if r.Policy == "Hybrid-Application" {
			appCSRs := AppWiseCSRs(r, c.SimTrace)
			fmt.Fprintf(w, "Hybrid-Application app-wise Q3-CSR (the paper's unit): %.4f over %d apps\n",
				stats.Quantile(appCSRs, 0.75), len(appCSRs))
		}
	}
	return nil
}

// policyBars renders one bar per compared policy: value projects a result
// (given the SPES row it may normalize to) onto the figure's axis.
func policyBars(w io.Writer, s Settings, title, axis string, value func(spes, r *sim.Result) float64) error {
	c, err := SharedComparison(s, w)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, title)
	labels := make([]string, 0, len(c.Results))
	values := make([]float64, 0, len(c.Results))
	for _, r := range c.Results {
		labels = append(labels, r.Policy)
		values = append(values, value(c.SPES, r))
	}
	report.BarChart(w, axis, labels, values)
	return nil
}

// normalized is v relative to base, 0 when there is no base to speak of.
func normalized(v, base float64) float64 {
	if base > 0 {
		return v / base
	}
	return 0
}

// Fig9a reproduces the normalized memory usage comparison.
func Fig9a(w io.Writer, s Settings) error {
	return policyBars(w, s, "Figure 9(a) — memory usage normalized to SPES (lower is better)",
		"  mean loaded instances / SPES",
		func(spes, r *sim.Result) float64 { return normalized(r.MeanLoaded(), spes.MeanLoaded()) })
}

// Fig9b reproduces the always-cold function percentage comparison.
func Fig9b(w io.Writer, s Settings) error {
	return policyBars(w, s, "Figure 9(b) — share of always-cold functions (lower is better)",
		"  always-cold functions (%)",
		func(_, r *sim.Result) float64 { return 100 * r.AlwaysColdFraction() })
}

// Fig11a reproduces the normalized wasted-memory-time comparison.
func Fig11a(w io.Writer, s Settings) error {
	return policyBars(w, s, "Figure 11(a) — wasted memory time normalized to SPES (lower is better)",
		"  WMT / SPES",
		func(spes, r *sim.Result) float64 { return normalized(float64(r.TotalWMT), float64(spes.TotalWMT)) })
}

// Fig11b reproduces the effective memory consumption ratio comparison.
func Fig11b(w io.Writer, s Settings) error {
	return policyBars(w, s, "Figure 11(b) — effective memory consumption ratio (higher is better)",
		"  EMCR (%)",
		func(_, r *sim.Result) float64 { return 100 * r.EMCR() })
}

// categoryBars renders one bar per SPES category, annotated with its
// population, over the per-category means pick selects.
func categoryBars(w io.Writer, s Settings, title, axis string, pick func(meanCSR, meanWMT map[string]float64) map[string]float64) error {
	c, err := SharedComparison(s, w)
	if err != nil {
		return err
	}
	meanCSR, meanWMT, counts := c.SPES.TypeBreakdown()
	means := pick(meanCSR, meanWMT)
	fmt.Fprintln(w, title)
	labels := report.SortedKeys(means)
	values := make([]float64, 0, len(labels))
	annotated := make([]string, 0, len(labels))
	for _, label := range labels {
		values = append(values, means[label])
		annotated = append(annotated, fmt.Sprintf("%s (n=%d)", label, counts[label]))
	}
	report.BarChart(w, axis, annotated, values)
	return nil
}

// Fig10 reproduces the per-category mean cold-start rate of SPES.
func Fig10(w io.Writer, s Settings) error {
	return categoryBars(w, s, "Figure 10 — mean cold-start rate per SPES category",
		"  mean function-wise CSR",
		func(csr, _ map[string]float64) map[string]float64 { return csr })
}

// Fig12 reproduces the per-category wasted-memory ratio of SPES.
func Fig12(w io.Writer, s Settings) error {
	return categoryBars(w, s, "Figure 12 — wasted memory time per invocation, per SPES category",
		"  WMT minutes per invoked slot",
		func(_, wmt map[string]float64) map[string]float64 { return wmt })
}

// Overhead reproduces RQ2's scheduling-overhead discussion: Tick time per
// simulated minute per policy, read off the shared comparison run. That is
// the regime every run takes: idle minutes skipped (they cost no Tick) and
// the policies run side by side on RunAll's fan-out, so the figures carry
// the contention of the cores they share. BenchmarkOverhead_* (root
// bench_test.go) is the quiet measurement: one policy's Ticks, every slot,
// nothing beside them.
func Overhead(w io.Writer, s Settings) error {
	c, err := SharedComparison(s, w)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "RQ2 — provision overhead per simulated minute")
	tab := report.NewTable("Policy", "Tick per minute", "Total")
	for _, r := range c.Results {
		tab.AddRow(r.Policy, r.OverheadPerSlot().String(), r.Overhead.String())
	}
	tab.Render(w)
	fmt.Fprintln(w, "(taken as every run goes: idle minutes skipped, policies side by side;")
	fmt.Fprintln(w, " BenchmarkOverhead_* times one policy's Ticks alone, every slot)")
	fmt.Fprintln(w, "(paper: fixed keep-alive fastest; SPES adds small constant work per minute;")
	fmt.Fprintln(w, " histogram methods HF/HA/Defuse carry the histogram-update bottleneck)")
	return nil
}
