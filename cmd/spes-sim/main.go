// Command spes-sim runs one provisioning policy over a workload and prints
// the paper's metrics: cold-start rate quantiles, wasted memory time,
// effective memory consumption ratio, and per-type breakdowns for SPES.
//
//	spes-sim -policy spes -functions 2000 -days 14 -train-days 12
//	spes-sim -policy defuse -trace trace.csv -train-days 12
//	spes-sim -policy spes -scenario churn -retrain-every 1440
//	spes-sim -policy lcs -shards 4 -stream
//	spes-sim -policy spes -store ./azstore -trace invocations.csv -train-days 12
//
// The workload comes through experiments.Open: generated (the default),
// generated one shard at a time (-stream), an Azure-schema CSV (-trace), or
// a columnar shard store (-store, the warm path for real traces; a missing
// store is first ingested from the -trace beside it and left behind). Every
// door prints the same metrics for the same trace, at every -shards; the
// wall-clock mean tick overhead goes to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spes-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	s := experiments.DefaultSettings()
	s.RegisterFlags(flag.CommandLine, "functions", "days", "train-days", "seed", "scenario")
	var in experiments.Input
	flag.StringVar(&in.Trace, "trace", "", "Azure-schema CSV to simulate instead of generating (-functions, -days and -seed are then the trace's)")
	flag.StringVar(&in.Store, "store", "", "columnar shard store directory to simulate from; built from -trace when missing, partitioned -shards wide")
	flag.BoolVar(&in.Stream, "stream", false, "generate the workload one shard at a time inside the simulation: O(functions/shards) event series per worker, results bit-identical")
	flag.IntVar(&in.Shards, "shards", 1, "population shards simulated concurrently; results are bit-identical to -shards 1")
	policyName := flag.String("policy", "spes", "policy: "+strings.Join(experiments.PolicyNames(), "|"))
	capacity := flag.Int("capacity", 0, "faascache/lcs capacity (0: 10% of functions)")
	flag.IntVar(&s.SPES.Classify.ThetaPrewarm, "theta-prewarm", s.SPES.Classify.ThetaPrewarm, "SPES pre-warm window")
	retrainEvery := flag.Int("retrain-every", 0, "re-run SPES's categorization online every this many simulated slots over a sliding history window (other policies run unchanged); 0 disables")
	retrainWindow := flag.Int("retrain-window", 0, "sliding window length in slots for -retrain-every (0: the training window length)")
	flag.Parse()

	if in.Shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", in.Shards)
	}
	if *retrainEvery < 0 || *retrainWindow < 0 {
		return fmt.Errorf("-retrain-every and -retrain-window must be >= 0, got %d / %d", *retrainEvery, *retrainWindow)
	}
	w, err := experiments.Open(s, in)
	if err != nil {
		return err
	}
	switch {
	case w.Ingested != nil:
		fmt.Fprintf(os.Stderr, "spes-sim: store: cold ingest of %s into %s (%d functions, %d events, %d shards)\n",
			in.Trace, in.Store, w.Ingested.Functions, w.Ingested.Events, w.Ingested.Shards)
	case w.Store != nil:
		fmt.Fprintf(os.Stderr, "spes-sim: store: warm load from %s (%d shards, %d functions; CSV not opened)\n",
			in.Store, w.Store.NumShards(), w.Store.NumFunctions())
	}

	pool := *capacity
	if pool <= 0 {
		pool = max(w.Settings.Functions/10, 1)
	}
	policy, err := experiments.NewPolicy(*policyName, w.Settings.SPES, pool)
	if err != nil {
		return err
	}
	res, err := w.Run(policy, sim.Options{
		Shards:        in.Shards,
		RetrainEvery:  *retrainEvery,
		RetrainWindow: *retrainWindow,
	})
	if err != nil {
		return err
	}

	fmt.Printf("policy: %s | %d functions | %d sim minutes\n", res.Policy, res.Functions, res.Slots)
	tab := report.NewTable("Metric", "Value")
	tab.AddRow("invocations", fmt.Sprint(res.TotalInvocations))
	tab.AddRow("invoked (function, slot) pairs", fmt.Sprint(res.TotalInvokedSlot))
	tab.AddRow("cold starts", fmt.Sprint(res.TotalColdStarts))
	tab.AddRow("global CSR", fmt.Sprintf("%.4f", res.GlobalCSR()))
	tab.AddRow("Q3-CSR (75th pct function-wise)", fmt.Sprintf("%.4f", res.QuantileCSR(0.75)))
	tab.AddRow("P90-CSR", fmt.Sprintf("%.4f", res.QuantileCSR(0.90)))
	tab.AddRow("warm (never-cold) functions", fmt.Sprintf("%.2f%%", 100*res.WarmFraction()))
	tab.AddRow("always-cold functions", fmt.Sprintf("%.2f%%", 100*res.AlwaysColdFraction()))
	tab.AddRow("mean loaded instances", fmt.Sprintf("%.1f", res.MeanLoaded()))
	tab.AddRow("peak loaded instances", fmt.Sprint(res.MaxLoaded))
	tab.AddRow("wasted memory time (min)", fmt.Sprint(res.TotalWMT))
	tab.AddRow("EMCR", fmt.Sprintf("%.2f%%", 100*res.EMCR()))
	tab.Render(os.Stdout)

	if res.Types != nil {
		meanCSR, meanWMT, counts := res.TypeBreakdown()
		fmt.Println("\nper-type breakdown:")
		tb := report.NewTable("Type", "Functions", "Mean CSR", "WMT/invocation")
		for _, label := range report.SortedKeys(counts) {
			tb.AddRow(label, fmt.Sprint(counts[label]),
				fmt.Sprintf("%.4f", meanCSR[label]), fmt.Sprintf("%.2f", meanWMT[label]))
		}
		tb.Render(os.Stdout)
	}
	// Wall clock goes to stderr, so stdout is the same at every -shards.
	fmt.Fprintf(os.Stderr, "spes-sim: mean tick overhead %v per simulated minute, summed over shards\n", res.OverheadPerSlot())
	return nil
}
