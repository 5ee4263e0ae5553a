// Command spes-experiments regenerates the tables and figures of the
// paper's evaluation section (see DESIGN.md's experiment index).
//
//	spes-experiments -fig 8             # one figure
//	spes-experiments -fig all           # everything
//	spes-experiments -fig 13a -functions 3000 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	s := experiments.DefaultSettings()
	s.RegisterFlags(flag.CommandLine, "functions", "days", "train-days", "seed")
	fig := flag.String("fig", "all", "figure id ("+strings.Join(experiments.IDs(), ",")+") or 'all'")
	flag.Parse()

	if err := run(s, *fig); err != nil {
		fmt.Fprintln(os.Stderr, "spes-experiments:", err)
		os.Exit(1)
	}
}

func run(s experiments.Settings, fig string) error {
	// One validation before any figure starts — never a library panic, and
	// not from the middle of an -fig all run.
	if err := s.Validate(); err != nil {
		return err
	}
	if fig == "all" {
		return experiments.RunAllFigures(os.Stdout, s)
	}
	runner, err := experiments.Lookup(fig)
	if err != nil {
		return err
	}
	return runner(os.Stdout, s)
}
