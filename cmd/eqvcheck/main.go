// Command eqvcheck runs the engine-equivalence matrix of internal/eqv — the
// harness of the root tests — at scales the unit suite does not. Its flags
// name one matrix; every run must equal its reference under Result.Diff,
// and any mismatch exits 1. Workloads come through experiments.Open, so the
// doors under comparison are the doors users get.
//
// By default SPES's dense reference is held against the event and sharded
// engines. -stream adds the streamed engine. -capacity adds FaaSCache and
// LCS across shard counts {2, 5, 16}; -streamonly never materializes;
// -ingest holds one Azure-format CSV's store doors to its materialized run.
// Each flag's help says the rest:
//
//	go run ./cmd/eqvcheck                         # 400 functions, shards 4
//	go run ./cmd/eqvcheck -functions 600 -scenario churn -retrain-every 1440 -shards 2 -stream
//	go run ./cmd/eqvcheck -capacity -stream -shards 4
//	go run ./cmd/eqvcheck -streamonly -functions 100000 -sparse -shards 16 -seeds 1 -workers 2 -maxheap 450000000
//	go run ./cmd/eqvcheck -ingest testdata/azure_sample.csv -train-days 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/eqv"
	"repro/internal/experiments"
	"repro/internal/memwatch"
)

func main() {
	c, err := parse(os.Args[1:])
	if err == nil {
		err = c.run(os.Stdout)
	}
	os.Exit(exitCode(err))
}

// exitCode reports err on stderr and maps it to the exit status: 0, or 1
// for any error.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(os.Stderr, "eqvcheck:", err)
	return 1
}

// config is the parsed command line: a matrix and the checks around it.
type config struct {
	m       eqv.Matrix
	pool    int // the -capacity pool
	maxHeap uint64
}

// parse turns flags into the matrix they name. Every bad value or
// combination comes back as an error before any work starts, never as a
// library panic's stack trace.
func parse(args []string) (*config, error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	s := experiments.DefaultSettings()
	s.Functions, s.Days, s.TrainDays = 400, 8, 6 // the seed is set per -seeds pass
	s.RegisterFlags(fs, "functions", "days", "train-days", "scenario", "sparse")
	shards := fs.Int("shards", 4, "shard count for the sharded engine (0 disables the sharded check)")
	seeds := fs.Int("seeds", 3, "number of seeds to check")
	stream := fs.Bool("stream", false, "additionally check the streamed engine (sim.RunStreamed over a generator source) against the dense reference")
	streamOnly := fs.Bool("streamonly", false, "check only streamed engines (-shards vs 2x -shards) without ever materializing a trace; peak residency stays O(functions/shards)")
	maxHeap := fs.Uint64("maxheap", 0, "exit non-zero if sampled peak HeapInuse exceeds this many bytes (0: unbounded)")
	workers := fs.Int("workers", 0, "width of each policy and shard fan-out (0: one per core); streamed residency is ONE shard of O(functions/shards) event series PER in-flight worker, so -maxheap bounds need a fixed worker count, not the runner's core count")
	retrain := fs.Int("retrain-every", 0, "enable SPES online re-categorization every this many slots in every engine under comparison (0: off)")
	capCheck := fs.Bool("capacity", false, "additionally check the capacity-coupled baselines: FaaSCache and LCS under shard counts {2, 5, 16} (over streamed sources of that many shards with -stream) must be bit-identical to their unsharded runs")
	ingestCSV := fs.String("ingest", "", "real-trace mode: check this Azure-format CSV through materialized, sharded, and columnar-store (ingested, then reopened) paths for bit-identity; generation flags are ignored")
	fs.Parse(args)

	p, ingest := *shards, *ingestCSV != ""
	c := &config{pool: max(s.Functions/3, 1), maxHeap: *maxHeap}
	c.m = eqv.Matrix{Workers: *workers}
	var bad error // -ingest takes its dimensions from the trace
	if !ingest {
		bad = s.Validate()
	}
	for _, r := range []struct {
		bad bool
		err error
	}{
		{ingest && (*stream || *streamOnly || *capCheck || s.Scenario.Name != "" || *retrain != 0),
			errors.New("-ingest is a self-contained mode; it cannot be combined with -stream, -streamonly, -capacity, -scenario, or -retrain-every")},
		{ingest && p < 2, fmt.Errorf("-ingest needs -shards >= 2 (a green run must actually exercise the store partition), got %d", p)},
		{bad != nil, bad},
		{!ingest && *seeds < 1, fmt.Errorf("-seeds must be >= 1, got %d", *seeds)},
		{p < 0 || *workers < 0, fmt.Errorf("-shards and -workers must be >= 0, got %d / %d", p, *workers)},
		{*stream && p <= 1, errors.New("-stream needs -shards > 1 (a green run must actually exercise the streamed engine)")},
		{*streamOnly && *capCheck, errors.New("-capacity cannot be combined with -streamonly (a capacity-coupled policy keeps the whole population resident)")},
		{*streamOnly && *stream, errors.New("-streamonly cannot be combined with -stream")},
		{*retrain < 0, fmt.Errorf("-retrain-every must be >= 0, got %d", *retrain)},
		{*streamOnly && p < 1, errors.New("-streamonly needs -shards >= 1")},
	} {
		if r.bad {
			return nil, r.err
		}
	}

	spes := []eqv.Policy{eqv.SPES()}
	if ingest {
		c.m.Workload = eqv.Workload{Settings: s, Trace: *ingestCSV}
		c.m.Rows = []eqv.Row{{Policies: append(spes, eqv.Fixed()), Ref: eqv.Event, Engines: []eqv.Engine{
			eqv.Sharded(p), eqv.StoreCold(p), eqv.StoreWarm(p)}}}
		return c, nil
	}
	// s keeps its -scenario as a pending name: scenario cohorts are drawn
	// from the workload seed, so each seed's workload positions it anew.
	c.m.Workload = eqv.Workload{Settings: s, RetrainEvery: *retrain}
	for seed := int64(1); seed <= int64(*seeds); seed++ {
		c.m.Seeds = append(c.m.Seeds, seed)
	}
	if *streamOnly {
		c.m.Rows = []eqv.Row{{Policies: spes, Ref: eqv.Streamed(p), Engines: []eqv.Engine{eqv.Streamed(2 * p)}}}
		return c, nil
	}
	if *capCheck {
		door := eqv.Sharded
		if *stream {
			door = eqv.Streamed // the source's shard count replaces Options.Shards
		}
		c.m.Rows = append(c.m.Rows, eqv.Row{Policies: eqv.Capacity(c.pool), Ref: eqv.Event,
			Engines: []eqv.Engine{door(2), door(5), door(16)}})
	}
	engines := []eqv.Engine{eqv.Event}
	if p > 1 {
		engines = append(engines, eqv.Sharded(p))
	}
	if *stream {
		engines = append(engines, eqv.Streamed(p))
	}
	c.m.Rows = append(c.m.Rows, eqv.Row{Policies: spes, Ref: eqv.Dense, Engines: engines})
	return c, nil
}

// run checks the matrix and prints one line per reference result, then
// what the flags assert around it.
func (c *config) run(out io.Writer) error {
	watch := memwatch.Watch()
	rep, err := eqv.Check(c.m)
	if err != nil {
		return err
	}
	for _, mm := range rep.Mismatches {
		fmt.Fprint(out, mm)
	}
	if n := len(rep.Mismatches); n > 0 {
		return fmt.Errorf("%d results diverged", n)
	}
	if st := rep.Ingested; st != nil {
		fmt.Fprintf(out, "ingested %s: %d functions x %d slots, %d events, %d shards, %d bytes\n",
			c.m.Trace, st.Functions, st.Slots, st.Events, st.Shards, st.StoreBytes)
	}
	for _, r := range rep.Refs {
		switch {
		case c.m.Trace != "":
			fmt.Fprintf(out, "%s: materialized, sharded, and store-sourced identical", r.Policy)
		case r.Policy != "SPES":
			fmt.Fprintf(out, "seed %d: %s capacity (pool=%d) identical across shard counts", r.Seed, r.Policy, c.pool)
		default:
			fmt.Fprintf(out, "seed %d: identical", r.Seed)
		}
		fmt.Fprintf(out, " (cold=%d wmt=%d mem=%d)\n", r.TotalColdStarts, r.TotalWMT, r.TotalMemory)
	}
	if c.m.Trace != "" {
		fmt.Fprintln(out, "store: warm reopen identical")
	}
	peak, after := watch.Finish()
	fmt.Fprintf(out, "heap: peak=%d after-gc=%d bytes\n", peak, after)
	if c.maxHeap > 0 && peak > c.maxHeap {
		return fmt.Errorf("peak heap %d exceeds -maxheap %d (O(n/P) residency regressed?)", peak, c.maxHeap)
	}
	return nil
}
