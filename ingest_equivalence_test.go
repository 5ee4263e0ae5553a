// Store equivalence: simulating from the columnar shard store
// (trace.IngestCSV + trace.StoreSource) must reproduce the materialized
// CSV path (trace.ReadCSV + Split + sim.Run) bit for bit, cold and after a
// warm reopen, over the committed testdata sample — the acceptance
// contract of the real-trace ingestion pipeline.
package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The store source must satisfy the streamed engine's contracts at compile
// time: Source to be runnable, SourceFingerprint so a ShardCache
// can key stored shards.
var (
	_ sim.Source            = (*trace.StoreSource)(nil)
	_ sim.SourceFingerprint = (*trace.StoreSource)(nil)
)

const (
	sampleCSV       = "testdata/azure_sample.csv"
	sampleShards    = 4
	sampleTrainDays = 3
)

// TestStoreMatchesMaterializedCSV ingests the committed sample, then runs
// SPES and a baseline over the store — cold, and again through a fresh
// OpenStore (the warm path spes-sim -store takes) — asserting every Result
// field matches the materialized reference.
func TestStoreMatchesMaterializedCSV(t *testing.T) {
	f, err := os.Open(sampleCSV)
	if err != nil {
		t.Fatal(err)
	}
	full, err := trace.ReadCSV(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	splitAt := sampleTrainDays * 1440
	train, simTr := full.Split(splitAt)

	dir := filepath.Join(t.TempDir(), "store")
	f, err = os.Open(sampleCSV)
	if err != nil {
		t.Fatal(err)
	}
	st, stats, err := trace.IngestCSV(f, dir, trace.IngestOptions{Shards: sampleShards})
	f.Close()
	if err != nil {
		t.Fatalf("IngestCSV: %v", err)
	}
	if stats.Functions != full.NumFunctions() || stats.Slots != full.Slots {
		t.Fatalf("ingested %d functions x %d slots, want %d x %d",
			stats.Functions, stats.Slots, full.NumFunctions(), full.Slots)
	}

	warm, err := trace.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}

	for _, p := range []struct {
		name string
		mk   func() sim.Policy
	}{
		{"SPES", func() sim.Policy { return core.New(core.DefaultConfig()) }},
		{"FixedKeepAlive", func() sim.Policy { return baselines.NewFixedKeepAlive(10) }},
	} {
		t.Run(p.name, func(t *testing.T) {
			ref, err := sim.Run(p.mk(), train, simTr, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, pass := range []struct {
				label string
				store *trace.Store
			}{{"cold", st}, {"warm-reopen", warm}} {
				src, err := pass.store.Source(splitAt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.RunStreamed(p.mk(), src, sim.Options{})
				if err != nil {
					t.Fatalf("%s: RunStreamed: %v", pass.label, err)
				}
				assertSameResult(t, p.name+"/"+pass.label+" store vs materialized", ref, got)
			}
		})
	}
}
