// Command scenariobench compares provisioning policies across the
// non-stationary scenario library: for every scenario (steady, drift,
// flashcrowd, churn, deploy-wave) it simulates each policy over the same
// transformed workload and tabulates cold-start rate, wasted memory time,
// and memory residency — the conditions the paper's fixed
// 14-day-train/7-day-sim evaluation never exercises, and the first place
// SPES's online re-categorization (-retrain-every) can be measured against
// its stale-categorization self.
//
//	scenariobench                                  # library x policies, 2000 fns
//	scenariobench -scenarios drift,churn -functions 600 -shards 2 -stream
//	scenariobench -store ./azstore -train-days 3   # a real trace, from its store
//
// Both modes print experiments.PolicyTable — SPES first, FaaSCache and LCS
// budgeted at the memory SPES used — over an experiments.Workload; rows are
// identical with and without -stream. That the engines behind them agree
// bit for bit is eqvcheck's job (-scenario, -ingest), not this command's.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scenariobench:", err)
		os.Exit(1)
	}
}

func run() error {
	s := experiments.DefaultSettings()
	s.RegisterFlags(flag.CommandLine, "functions", "days", "train-days", "seed")
	scenarios := flag.String("scenarios", "all", "comma-separated library scenarios to run, or 'all' ("+strings.Join(trace.ScenarioNames(), "|")+")")
	var in experiments.Input
	flag.IntVar(&in.Shards, "shards", 4, "population shards per simulation")
	flag.BoolVar(&in.Stream, "stream", false, "run the tabulated policies through the streamed engine (never materializes the trace pair)")
	flag.StringVar(&in.Store, "store", "", "columnar shard store directory (tracegen -ingest): tabulate the policies over the stored real trace instead of the scenario library; -train-days positions the split")
	retrainEvery := flag.Int("retrain-every", 1440, "the SPES+retrain row re-categorizes every this many slots (0 drops the row)")
	flag.Parse()

	if in.Shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", in.Shards)
	}
	if *retrainEvery < 0 {
		return fmt.Errorf("-retrain-every must be >= 0, got %d", *retrainEvery)
	}
	if in.Store != "" {
		// The store replaces the generated workload wholesale: its manifest
		// fixes the population, the horizon and the shard count.
		if *scenarios != "all" {
			return fmt.Errorf("-scenarios transforms the generated workload; it cannot be combined with -store")
		}
		w, err := experiments.Open(s, in)
		if err != nil {
			return err
		}
		split := w.Settings.TrainDays * 1440
		return table(w, in.Shards, *retrainEvery, fmt.Sprintf("store: %s | %d functions | %d shards | %d train + %d sim minutes",
			in.Store, w.Store.NumFunctions(), w.Store.NumShards(), split, w.Store.Slots()-split))
	}

	names := trace.ScenarioNames()
	if *scenarios != "all" {
		names = strings.Split(*scenarios, ",")
	}
	// Every name is validated before ANY scenario runs: a typo in the second
	// entry must not cost the first entry's full simulation, and an empty
	// element must not silently alias to steady.
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
		if names[i] == "" {
			return fmt.Errorf("empty scenario name in -scenarios %q", *scenarios)
		}
		s.Scenario.Name = names[i]
		if err := s.Validate(); err != nil {
			return err
		}
	}
	for i, name := range names {
		if i > 0 {
			fmt.Println()
		}
		s.Scenario.Name = name
		w, err := experiments.Open(s, in)
		if err == nil {
			err = table(w, in.Shards, *retrainEvery, fmt.Sprintf("scenario: %s | %d functions | %d train + %d sim days | seed %d",
				name, s.Functions, s.TrainDays, s.Days-s.TrainDays, s.Seed))
		}
		if err != nil {
			return fmt.Errorf("scenario %s: %w", name, err)
		}
	}
	return nil
}

// table simulates the policy table over one workload — the per-function
// policies as independent shard instances (a store fixes its own count),
// FaaSCache and LCS, which cannot shard, over the whole population — and
// prints it under header.
func table(w *experiments.Workload, shards, retrainEvery int, header string) error {
	rows, err := w.PolicyTable([]string{"fixed", "hf", "ha", "defuse"}, []string{"faascache", "lcs"},
		retrainEvery, sim.Options{Shards: shards})
	if err != nil {
		return err
	}
	fmt.Println(header)
	tab := report.NewTable("Policy", "ColdStarts", "CSR", "Q3-CSR", "WMT(min)", "MeanLoaded", "PeakLoaded")
	for _, row := range rows {
		r := row.Result
		tab.AddRow(row.Label,
			fmt.Sprint(r.TotalColdStarts),
			fmt.Sprintf("%.4f", r.GlobalCSR()),
			fmt.Sprintf("%.4f", r.QuantileCSR(0.75)),
			fmt.Sprint(r.TotalWMT),
			fmt.Sprintf("%.1f", r.MeanLoaded()),
			fmt.Sprint(r.MaxLoaded))
	}
	tab.Render(os.Stdout)
	return nil
}
