// Quickstart: generate a small Azure-like workload, train SPES on the first
// 12 days, simulate the last 2, and print the headline metrics.
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"

	"repro/spes"
)

func main() {
	// 1. Build a workload: 500 functions over 14 days. Swap in a real
	// Azure-schema CSV with spes.ReadTraceCSV to reproduce on real data.
	full, err := spes.GenerateTrace(spes.DefaultGeneratorConfig(500, 14, 42))
	if err != nil {
		log.Fatal(err)
	}
	train, simTr := full.Split(12 * 1440) // 12 days training, 2 simulated

	// 2. Run SPES with the paper's default parameters.
	policy := spes.NewSPES(spes.DefaultSPESConfig())
	res, err := spes.Run(policy, train, simTr, spes.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Read the trade-off: cold starts on one side, memory on the other.
	fmt.Printf("functions:            %d (%d invocations simulated)\n",
		res.Functions, res.TotalInvocations)
	fmt.Printf("Q3 cold-start rate:   %.4f\n", res.QuantileCSR(0.75))
	fmt.Printf("never-cold functions: %.1f%%\n", 100*res.WarmFraction())
	fmt.Printf("mean loaded:          %.1f instances\n", res.MeanLoaded())
	fmt.Printf("wasted memory time:   %d instance-minutes\n", res.TotalWMT)
	fmt.Printf("memory effectiveness: %.1f%% (EMCR)\n", 100*res.EMCR())

	// 4. SPES tags every function with its mined category.
	fmt.Println("\ncategory census:")
	census := map[string]int{}
	for f := 0; f < res.Functions; f++ {
		census[policy.TypeOf(spes.FuncID(f))]++
	}
	for _, label := range slices.Sorted(maps.Keys(census)) {
		fmt.Printf("  %-15s %d\n", label, census[label])
	}
}
