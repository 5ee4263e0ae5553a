package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

const (
	ingestFunctions = 1000
	ingestDays      = 6
	ingestTrainDays = 4
	ingestShards    = 8
	// ingestBuffer is below the trace's ~1.8M events so that the ingest
	// spills one sorted run, as the default 4Mi buffer does on a trace of
	// the issue's 4.8M events.
	ingestBuffer = 1 << 20
)

// ingested is the ingest-store workload: one repetition ingests the CSV into
// an empty directory, opens the store and runs SPES from it.
type ingested struct {
	env     *env
	cfg     core.Config
	csv     string
	train   *trace.Trace // the ReadCSV trace's split, for the probes
	simTr   *trace.Trace
	ref     *sim.Result
	nextDir int
}

func setupIngestStore(e *env) (workload, error) {
	s := experiments.Settings{Functions: ingestFunctions, Days: ingestDays, TrainDays: ingestTrainDays, SPES: core.DefaultConfig()}
	seedScenario(&s, e.seed)
	full, _, _, err := generate(e, s)
	if err != nil {
		return nil, err
	}
	w := &ingested{env: e, cfg: s.SPES, csv: filepath.Join(e.dir, "trace.csv")}
	t0 := time.Now()
	if err := writeCSVFile(w.csv, full); err != nil {
		return nil, err
	}
	e.stats["trace.csv.write_s"] = time.Since(t0).Seconds()

	// The reference takes the parse path: ReadCSV, split, unsharded run.
	t0 = time.Now()
	f, err := os.Open(w.csv)
	if err != nil {
		return nil, err
	}
	parsed, err := trace.ReadCSV(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	e.stats["trace.csv.read_s"] = time.Since(t0).Seconds()
	w.train, w.simTr = parsed.Split(ingestTrainDays * 1440)
	if w.ref, err = sim.Run(core.New(s.SPES), w.train, w.simTr, sim.Options{}); err != nil {
		return nil, err
	}
	e.corruptResult(w.ref)
	return w, nil
}

func writeCSVFile(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := trace.WriteCSV(w, tr); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (w *ingested) rep(op int, tr *tracer) (*repOut, error) {
	out := newRepOut()
	w.nextDir++
	dir := filepath.Join(w.env.dir, fmt.Sprintf("store%d", w.nextDir))
	defer os.RemoveAll(dir)
	f, err := os.Open(w.csv)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	// spanned times body and, when the run is traced, records it as a span.
	spanned := func(name string, parent int, body func(id int)) float64 {
		id := tr.begin(name, parent, op)
		t0 := time.Now()
		body(id)
		d := time.Since(t0).Seconds()
		tr.end(id)
		return d
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	mark := tr.mark()
	root := tr.begin("harness.rep", -1, op)

	var stats *trace.IngestStats
	t0 := time.Now()
	ingest := spanned("trace.ingest", root, func(int) {
		_, stats, err = trace.IngestCSV(f, dir, trace.IngestOptions{Shards: ingestShards, MaxBufferedEvents: ingestBuffer})
	})
	out.attempted++
	if err != nil {
		out.fail("ingest-store: ingest: %v", err)
		return out, nil
	}

	var store *trace.Store
	var res *sim.Result
	var run *tracedRun
	var simRun float64
	open := spanned("trace.store.open", root, func(int) { store, err = trace.OpenStore(dir) })
	if err == nil {
		simRun = spanned("sim.run", root, func(id int) {
			var src *trace.StoreSource
			if src, err = store.Source(ingestTrainDays * 1440); err != nil {
				return
			}
			if tr == nil {
				res, err = sim.RunStreamed(core.New(w.cfg), src, sim.Options{})
				return
			}
			run = newTracedRun(tr, id, op)
			res, err = sim.RunStreamed(&tracedSPES{SPES: core.New(w.cfg), run: run},
				&tracedSource{fingerprintedSource: src, run: run, name: "trace.store.shard_read"}, sim.Options{})
		})
	}
	wall := time.Since(t0).Seconds()
	rootSpan := tr.end(root)
	runtime.ReadMemStats(&m1)
	out.attempted++
	if err != nil {
		out.fail("ingest-store: open and run: %v", err)
		return out, nil
	}
	if !equalResults(res, w.ref) {
		out.fail("ingest-store: store-sourced result differs from the parse-path reference")
		return out, nil
	}

	out.sample["ingest_s"] = ingest
	out.sample["run_s"] = wall
	out.sample["alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	out.sample["events_per_s"] = float64(stats.Events) / wall
	out.exact["q3_csr"] = res.QuantileCSR(0.75)
	out.exact["global_csr"] = res.GlobalCSR()
	out.exact["wmt_minutes"] = float64(res.TotalWMT)
	out.counts["events"] = stats.Events
	out.counts["slots"] = int64(stats.Slots)
	out.counts["store_bytes"] = stats.StoreBytes
	out.counts["spill_runs"] = int64(stats.SpillRuns)
	out.counts["cold_starts"] = res.TotalColdStarts
	out.counts["wmt_minutes"] = res.TotalWMT
	out.layer["trace.ingest.rows_per_s"] = float64(stats.Functions*ingestDays) / ingest
	out.layer["trace.ingest.spill_runs"] = float64(stats.SpillRuns)
	out.layer["trace.store.bytes"] = float64(stats.StoreBytes)
	out.layer["trace.store.open_s"] = open
	if tr != nil {
		spans := tr.since(mark)
		selfLayers(out, spans, rootSpan)
		spanLayers(out, spans, run, simRun, ingestShards*res.Slots)
	}
	return out, nil
}

func (w *ingested) layers(c *layerCtx) error {
	probeCategorize(w.train, w.cfg, c.m)
	probeSlotIndex(w.simTr, c.m)
	return nil
}
