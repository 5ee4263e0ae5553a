package experiments

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Input names where a Workload's invocations come from. The zero value is
// the generated train/sim pair BuildWorkload returns.
type Input struct {
	Stream bool   // generate one population shard at a time (StreamSource), never the whole trace
	Trace  string // Azure-schema CSV: materialized, or — beside Store — ingested when the store is missing
	Store  string // columnar shard store directory to stream from (trace.OpenStore)
	Shards int    // shard count of a streamed generation or of a cold ingest
}

// Workload is one train/sim workload behind one of four doors — generated
// and materialized, generated and streamed, a materialized CSV, a columnar
// store — with the choice hidden from whoever simulates it: Run and RunAll
// are the same call for all four, and their results are bit-identical
// wherever two doors hold the same trace.
type Workload struct {
	// Settings is what the workload was opened with, scenario positioned;
	// for the CSV and store doors Functions and Days are the loaded trace's.
	Settings Settings
	// Train and Sim are the materialized pair; nil when Streamed.
	Train, Sim *trace.Trace
	// Store is the opened store behind the store door, and Ingested the
	// report of the cold ingest that built it in this call (nil when warm).
	Store    *trace.Store
	Ingested *trace.IngestStats

	src sim.Source // the streamed doors
}

// Open builds the workload of s behind the door in selects. A CSV or store
// fixes the population and the horizon itself: s.TrainDays positions the
// split, Settings.Validate judges it against the trace's real dimensions,
// and -stream and -scenario, which shape generated workloads, are refused.
func Open(s Settings, in Input) (*Workload, error) {
	w := &Workload{Settings: s}
	var err error
	switch {
	case in.Trace == "" && in.Store == "":
		if w.Settings, err = s.resolved(); err != nil {
			return nil, err
		}
		if in.Stream {
			w.src, err = StreamSource(w.Settings, in.Shards)
		} else {
			_, w.Train, w.Sim, err = BuildWorkload(w.Settings)
		}
		if err != nil {
			return nil, err
		}
		return w, nil
	case in.Stream || s.Scenario.Name != "" || s.Scenario.Enabled():
		return nil, errors.New("experiments: -stream and -scenario shape a generated workload; they cannot be combined with -trace or -store")
	}

	var full *trace.Trace
	slots := 0
	if in.Store != "" {
		if w.Store, w.Ingested, err = openStore(in); err != nil {
			return nil, err
		}
		w.Settings.Functions, slots = w.Store.NumFunctions(), w.Store.Slots()
	} else {
		if full, err = readCSV(in.Trace); err != nil {
			return nil, err
		}
		w.Settings.Functions, slots = full.NumFunctions(), full.Slots
	}
	w.Settings.Days = slots / 1440 // both doors hold whole CSV days
	if err := w.Settings.Validate(); err != nil {
		return nil, err
	}
	split := w.Settings.TrainDays * 1440
	if full != nil {
		w.Train, w.Sim = full.Split(split)
		return w, nil
	}
	if w.src, err = w.Store.Source(split); err != nil {
		return nil, err
	}
	return w, nil
}

// readCSV materializes an Azure-schema CSV file.
func readCSV(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadCSV(f)
}

// openStore opens in.Store warm, or — when it is missing or fails
// verification and in.Trace names the CSV — ingests the CSV into it first,
// partitioned in.Shards wide, and leaves the store behind for the next run.
func openStore(in Input) (*trace.Store, *trace.IngestStats, error) {
	st, err := trace.OpenStore(in.Store)
	if err == nil {
		return st, nil, nil
	}
	if !errors.Is(err, trace.ErrStoreCorrupt) || in.Trace == "" {
		return nil, nil, fmt.Errorf("opening store: %w (build it with spes-sim -store DIR -trace CSV or tracegen -ingest)", err)
	}
	f, err := os.Open(in.Trace)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return trace.IngestCSV(f, in.Store, trace.IngestOptions{Shards: in.Shards})
}

// Streamed reports whether shards are produced inside the simulation
// workers (a streamed generation or a store) rather than held materialized.
func (w *Workload) Streamed() bool { return w.src != nil }

// Run simulates one policy over the workload: sim.Run over the materialized
// pair (opts.Shards selects the sharded engine) or sim.RunStreamed over the
// source, whose shard count then replaces opts.Shards. The workload owns
// opts.Source.
func (w *Workload) Run(p sim.Policy, opts sim.Options) (*sim.Result, error) {
	opts.Source = w.src
	return sim.Run(p, w.Train, w.Sim, opts)
}

// RunAll is sim.RunAll over the workload: one shared worker budget and, for
// a materialized sharded run, one shared partition; results in input order.
func (w *Workload) RunAll(ps []sim.Policy, opts sim.Options) ([]*sim.Result, error) {
	opts.Source = w.src
	return sim.RunAll(ps, w.Train, w.Sim, opts)
}
