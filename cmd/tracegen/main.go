// Command tracegen synthesizes an Azure-like serverless invocation trace
// and writes it in the Azure Functions 2019 CSV schema, so downstream tools
// (and the real dataset) are interchangeable.
//
//	tracegen -functions 2000 -days 14 -seed 1 -o trace.csv
//
// Large populations are generated and written one population shard at a
// time (whole applications and users per shard), at ~1/S of the peak memory:
//
//	tracegen -functions 500000 -days 14 -shards 32 -o big.csv
//
// The sharded file holds exactly the same functions and series, but its row
// order — and so the FuncID space ReadCSV assigns by first appearance — is
// a permutation of the unsharded file's: the same workload, not
// bit-comparable simulations (FuncID-order tie-breaks can resolve
// differently). For bit-exact cross-checks generate unsharded, or simulate
// the generated trace directly (sim.Options.Shards preserves global order).
//
// A train/sim split as two CSVs, the simulation file re-based to slot 0,
// under a library scenario positioned at the split; both stream through the
// per-shard source the simulator consumes, at unchanged per-shard memory:
//
//	tracegen -functions 2000 -days 14 -train-days 12 -scenario churn \
//	    -o sim.csv -train-o train.csv
//
// Ingesting an existing Azure-format CSV (arbitrarily large; - for stdin)
// into a columnar shard store, so later simulations (spes-sim -store,
// examples/azurereplay) skip the CSV parse entirely:
//
//	tracegen -ingest invocations.csv -store ./azstore -shards 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run() error {
	// TrainDays 0 — tracegen's default, and its alone — writes one unsplit CSV.
	s := experiments.Settings{Functions: 2000, Days: 14, Seed: 1}
	s.RegisterFlags(flag.CommandLine, "functions", "days", "seed", "scenario", "sparse")
	flag.IntVar(&s.TrainDays, "train-days", 0, "when positive, split the trace: write the first train-days days to -train-o and the rest (re-based to slot 0) to -o")
	out := flag.String("o", "trace.csv", "output CSV path (- for stdout)")
	shift := flag.Float64("shift", 0.10, "fraction of functions with concept shifts")
	chain := flag.Float64("chain", 0.40, "fraction of multi-function apps forming chains")
	shards := flag.Int("shards", 1, "generate the population in this many streamed shards (bounds peak memory to ~1/shards of the trace)")
	trainOut := flag.String("train-o", "train.csv", "training-window CSV path when -train-days is set")
	ingest := flag.String("ingest", "", "ingest this Azure-format CSV (- for stdin) into the -store directory instead of generating")
	storeDir := flag.String("store", "", "columnar shard store directory for -ingest")
	flag.Parse()

	if *shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", *shards)
	}
	if *ingest != "" {
		if *storeDir == "" {
			return errors.New("-ingest needs -store <dir>")
		}
		var in io.Reader = os.Stdin
		if *ingest != "-" {
			f, err := os.Open(*ingest)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		start := time.Now()
		_, stats, err := trace.IngestCSV(in, *storeDir, trace.IngestOptions{Shards: *shards})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tracegen: ingested %d functions x %d slots (%d events, %d spill runs) into %s: %d shards, %d bytes in %v\n",
			stats.Functions, stats.Slots, stats.Events, stats.SpillRuns, *storeDir, stats.Shards, stats.StoreBytes, time.Since(start).Round(time.Millisecond))
		return nil
	}

	// Validation before either output is created: Settings.Validate for a
	// split trace, its scale half for an unsplit one. The scenario lands at
	// the split (with -train-days 0 its phases span the whole trace).
	validate := s.Validate
	if s.TrainDays == 0 {
		validate = s.ValidateScale
	}
	if err := validate(); err != nil {
		return err
	}
	if err := s.ApplyScenario(s.Scenario.Name); err != nil {
		return err
	}
	if s.TrainDays > 0 && *out == *trainOut {
		// Same destination would interleave (stdout) or overwrite (two
		// O_TRUNC handles on one path) the two CSV streams.
		return fmt.Errorf("-o and -train-o must name different destinations (both %q)", *out)
	}
	cfg := s.GeneratorConfig()
	cfg.ShiftFraction = *shift
	cfg.ChainFraction = *chain

	w, closeW, err := create(*out)
	if err != nil {
		return err
	}
	defer closeW() // error paths; the success path checks Close below
	var trainW io.Writer
	closeTrain := func() error { return nil }
	if s.TrainDays > 0 {
		if trainW, closeTrain, err = create(*trainOut); err != nil {
			return err
		}
		defer closeTrain()
	}

	// The generator source is the same per-shard iterator the streamed
	// simulation engine consumes; with -train-days 0 it yields each whole
	// shard as the "simulation" view.
	src := &sim.GeneratorSource{Cfg: cfg, TrainSlots: s.TrainDays * 1440, Shards: *shards}
	written := 0
	var invocations int64
	for i := 0; i < src.NumShards(); i++ {
		trainV, simV, err := src.Shard(i)
		if err != nil {
			return err
		}
		if err := trace.WriteCSV(w, simV.Trace); err != nil {
			return err
		}
		written += simV.NumFunctions()
		invocations += simV.TotalInvocations()
		if trainV != nil {
			if err := trace.WriteCSV(trainW, trainV.Trace); err != nil {
				return err
			}
			invocations += trainV.TotalInvocations()
		}
		if *shards > 1 {
			fmt.Fprintf(os.Stderr, "tracegen: shard %d/%d: %d functions\n",
				i+1, *shards, simV.NumFunctions())
		}
	}
	if err := errors.Join(closeW(), closeTrain()); err != nil {
		return err
	}
	if s.TrainDays > 0 {
		fmt.Fprintf(os.Stderr, "tracegen: wrote %d functions, %d train + %d sim days (%d invocations) to %s + %s\n",
			written, s.TrainDays, s.Days-s.TrainDays, invocations, *trainOut, *out)
		return nil
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d functions x %d days (%d invocations) to %s\n",
		written, s.Days, invocations, *out)
	return nil
}

// create opens an output CSV (- is stdout, which is never closed). Closing
// a created file twice is harmless: the second error is dropped by the
// deferred call that makes it.
func create(path string) (io.Writer, func() error, error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}
