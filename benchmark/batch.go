package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/baselines"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/memwatch"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Workload sizes. The issue's sizes (2000/20000 functions, 5760 requests)
// were cut so that three set-ups plus the measured seconds of every workload
// fit the driver's budget of 158 invocations in under an hour; the shapes —
// who does the work on which workload — are unchanged.
const (
	driftFunctions   = 1000
	sparseFunctions  = 6000
	sparseShards     = 16
	capacityShards   = 8
	capacityFraction = 10 // capacity = functions / capacityFraction
	retrainEvery     = 720
)

// The population of every workload is fixed — the generator runs on baseSeed,
// the seed of experiments.DefaultSettings — and the run's seed draws a small
// cohort of functions whose behaviour shifts at the train/simulation
// boundary, the concept shift of the paper's Figure 4. Two populations of
// these sizes drawn from the generator differ by 10-15 % in events and
// allocation, and their Q3 cold-start rates jump between 0.11 and 0.20, so
// across populations no bound below a quarter could hold; across cohorts the
// workload keeps its size and the inputs still differ.
const (
	baseSeed      = 1
	shiftFraction = 0.01
)

// seedScenario fixes s's population and gives it the seeded shift cohort
// followed by the workload's own phases. Those take the whole population
// (Fraction 1), because a scenario has one seed for all its cohorts: a
// partial cohort of theirs would be redrawn by every seed too.
func seedScenario(s *experiments.Settings, seed int64, phases ...trace.Phase) {
	s.Seed = baseSeed
	shift := trace.Phase{Kind: trace.PhaseShift, Start: s.TrainDays * 1440, Fraction: shiftFraction}
	s.Scenario = trace.ScenarioConfig{Name: "benchmark", Seed: seed, Phases: append([]trace.Phase{shift}, phases...)}
}

// fresh returns a view of tr that shares its series but not its memoized slot
// index, so every repetition pays for the index as a first run does.
func fresh(tr *trace.Trace) *trace.Trace {
	return &trace.Trace{Slots: tr.Slots, Functions: tr.Functions, Series: tr.Series}
}

func eventCount(tr *trace.Trace) int64 {
	var n int64
	for _, s := range tr.Series {
		n += int64(len(s))
	}
	return n
}

// equalResults compares two simulation results bit for bit, ignoring the
// wall-clock Overhead annotation.
func equalResults(a, b *sim.Result) bool {
	if a == nil || b == nil {
		return false
	}
	x, y := *a, *b
	x.Overhead, y.Overhead = 0, 0
	return reflect.DeepEqual(&x, &y)
}

// engineCall is one call into a simulation engine within a repetition. run
// is nil on an untraced repetition; a traced one wraps its policy and source.
type engineCall struct {
	name string // counts prefix; "" for a workload with a single call
	call func(run *tracedRun) (*sim.Result, error)
	ref  *sim.Result
}

// batch is the shared shape of the batch workloads: a repetition makes the
// engine calls in order and compares every result with its reference.
type batch struct {
	env    *env
	cfg    core.Config
	train  *trace.Trace // materialized windows, for the reference and the probes
	simTr  *trace.Trace
	events int64
	shards int // policy instances per run, for the skipped-slot count
	calls  []engineCall
	probes func(b *batch, c *layerCtx) error
}

func (b *batch) rep(op int, tr *tracer) (*repOut, error) {
	out := newRepOut()
	var runs []*tracedRun
	var results []*sim.Result
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	mark := tr.mark()
	root := tr.begin("harness.rep", -1, op)
	t0 := time.Now()
	for _, c := range b.calls {
		var run *tracedRun
		id := tr.begin("sim.run", root, op)
		if tr != nil {
			run = newTracedRun(tr, id, op)
			runs = append(runs, run)
		}
		t1 := time.Now()
		res, err := c.call(run)
		out.sample[c.name+"run_s"] = time.Since(t1).Seconds()
		tr.end(id)
		out.attempted++
		if err != nil {
			out.fail("%s%s: %v", b.env.workload, c.name, err)
		} else if !equalResults(res, c.ref) {
			out.fail("%s%s: result differs from its reference", b.env.workload, c.name)
		}
		results = append(results, res)
	}
	wall := time.Since(t0).Seconds()
	rootSpan := tr.end(root)
	runtime.ReadMemStats(&m1)
	if out.failed > 0 {
		return out, nil
	}

	out.sample["run_s"] = wall
	out.sample["alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	out.sample["events_per_s"] = float64(b.events) * float64(len(b.calls)) / wall
	out.exact["q3_csr"] = results[0].QuantileCSR(0.75)
	out.exact["global_csr"] = results[0].GlobalCSR()
	out.exact["wmt_minutes"] = float64(results[0].TotalWMT)
	out.counts["events"] = b.events
	out.counts["slots"] = int64(b.simTr.Slots)
	for i, c := range b.calls {
		out.counts[c.name+"cold_starts"] = results[i].TotalColdStarts
		out.counts[c.name+"wmt_minutes"] = results[i].TotalWMT
		out.counts[c.name+"invoked_slots"] = results[i].TotalInvokedSlot
	}
	if tr != nil {
		spans := tr.since(mark)
		selfLayers(out, spans, rootSpan)
		spanLayers(out, spans, runs[0], wall, b.shards*b.simTr.Slots)
	}
	return out, nil
}

func (b *batch) layers(c *layerCtx) error {
	probeSlotIndex(b.simTr, c.m)
	// Peak heap of one more untraced repetition; sampling stops the world,
	// which is why no timed repetition runs under the watcher.
	w := memwatch.Watch()
	_, err := b.rep(-1, nil)
	peak, _ := w.Finish()
	if err != nil {
		return err
	}
	c.m["sim.mem.peak_heap_mb"] = float64(peak) / 1e6
	return b.probes(b, c)
}

// selfLayers records the layers' self times of one traced repetition and the
// share of its root span they add up to: 1 on one goroutine, more where
// shards run side by side.
func selfLayers(out *repOut, spans []span, root span) {
	total := 0.0
	for layer, s := range layerSelfSeconds(spans) {
		out.layer[layer+".self_s"] = s
		total += s
	}
	out.sample["traced_wall_s"] = root.seconds()
	out.sample["self_time_share"] = total / root.seconds()
}

// spanLayers derives the per-layer metrics of one traced repetition from its
// spans and, for a sharded run, its per-shard records.
func spanLayers(out *repOut, spans []span, run *tracedRun, wall float64, policySlots int) {
	ticks := durations(spans, "core.tick")
	out.layer["core.train_s"] = stats.Sum(durations(spans, "core.train"))
	out.layer["core.tick_s"] = stats.Sum(ticks)
	out.layer["core.tick_count"] = float64(len(ticks))
	out.layer["core.tick_p50_us"] = percentile(ticks, 0.5) * 1e6
	out.layer["core.tick_p99_us"] = percentile(ticks, 0.99) * 1e6
	retrains := durations(spans, "classify.retrain")
	out.layer["classify.retrain_s"] = stats.Sum(retrains)
	out.layer["classify.retrain_count"] = float64(len(retrains))
	out.layer["sim.slots_skipped"] = float64(policySlots - len(ticks))
	out.counts["ticks"] = int64(len(ticks))
	out.counts["retrains"] = int64(len(retrains))
	for name, metric := range map[string]string{
		"trace.generate":         "trace.generate_s",
		"trace.store.shard_read": "trace.store.shard_read_s",
	} {
		if d := durations(spans, name); len(d) > 0 {
			out.layer[metric] = stats.Sum(d)
		}
	}

	if len(run.recs) == 0 {
		return
	}
	var busy, maxBusy, events, maxEvents float64
	for _, s := range run.recs {
		b := s.busySeconds()
		busy += b
		maxBusy = max(maxBusy, b)
		events += float64(s.events)
		maxEvents = max(maxEvents, float64(s.events))
	}
	workers := float64(min(runtime.GOMAXPROCS(0), len(run.recs)))
	out.layer["sim.shard.busy_s"] = busy
	out.layer["sim.shard.max_shard_s"] = maxBusy
	out.layer["sim.shard.event_skew"] = maxEvents / (events / float64(len(run.recs)))
	out.layer["sim.shard.parallel_efficiency"] = busy / (wall * workers)
	out.layer["sim.shard.unattributed_s"] = wall - busy/workers
}

// spesCall is an engine call that runs SPES, wrapped when traced.
func spesCall(cfg core.Config, ref *sim.Result, f func(p sim.Policy, run *tracedRun) (*sim.Result, error)) engineCall {
	return engineCall{ref: ref, call: func(run *tracedRun) (*sim.Result, error) {
		if run == nil {
			return f(core.New(cfg), nil)
		}
		return f(&tracedSPES{SPES: core.New(cfg), run: run}, run)
	}}
}

// timeAlloc runs f and returns its wall time and allocated megabytes.
func timeAlloc(f func()) (seconds, mb float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	seconds = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return seconds, float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
}

// generate builds the materialized workload of s and records what the
// generator cost in the set-up statistics.
func generate(e *env, s experiments.Settings) (full, train, simTr *trace.Trace, err error) {
	sec, mb := timeAlloc(func() { full, train, simTr, err = experiments.BuildWorkload(s) })
	e.stats["trace.generate_s"] = sec
	e.stats["trace.generate_alloc_mb"] = mb
	return full, train, simTr, err
}

// probeSlotIndex times building the slot-major index of the simulation window.
func probeSlotIndex(simTr *trace.Trace, m map[string]float64) {
	t0 := time.Now()
	fresh(simTr).BuildSlotIndex()
	m["trace.slot_index_s"] = time.Since(t0).Seconds()
}

// probeCategorize times the offline categorization on its own.
func probeCategorize(train *trace.Trace, cfg core.Config, m map[string]float64) {
	m["classify.categorize_s"], m["classify.categorize_alloc_mb"] = timeAlloc(func() {
		classify.Categorize(fresh(train), cfg.Classify, cfg.DisableCorrelation, cfg.DisableForgetting)
	})
}

// tickLoop drives a trained policy by hand over the slot index — monotone
// time, one goroutine, deltas drained as the Driver drains them — and
// returns the mean Tick time and the heap objects allocated per Tick.
func tickLoop(p sim.Policy, train, simTr *trace.Trace) (meanUS, allocsPerTick float64, mallocs int64) {
	p.Train(fresh(train))
	idx := fresh(simTr).BuildSlotIndex()
	tracker, _ := p.(sim.LoadDeltaTracker)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for t := 0; t < simTr.Slots; t++ {
		p.Tick(t, idx.Invocations[t])
		if tracker != nil {
			tracker.TakeLoadDeltas()
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	mallocs = int64(m1.Mallocs - m0.Mallocs)
	n := float64(simTr.Slots)
	return float64(elapsed.Microseconds()) / n, float64(mallocs) / n, mallocs
}

// probeSPESTicks runs tickLoop for SPES.
func probeSPESTicks(b *batch, c *layerCtx) {
	_, allocs, mallocs := tickLoop(core.New(b.cfg), b.train, b.simTr)
	c.m["core.tick_allocs"] = allocs
	c.counts["tick_loop_mallocs"] = mallocs
}

// probeDriver steps a sim.Driver over the occupied slots of the index, the
// loop runOne runs, and times the Steps alone: Tick plus accounting.
func probeDriver(b *batch, m map[string]float64) error {
	p := core.New(b.cfg)
	p.Train(fresh(b.train))
	idx := fresh(b.simTr).BuildSlotIndex()
	d := sim.NewDriver(p, b.simTr.NumFunctions(), sim.DriverConfig{})
	t0 := time.Now()
	for t, invs := range idx.Invocations {
		if len(invs) == 0 {
			continue
		}
		if _, err := d.Step(t, invs); err != nil {
			return err
		}
	}
	res := d.Close(b.simTr.Slots)
	m["sim.step_s"] = time.Since(t0).Seconds()
	if !equalResults(res, b.calls[0].ref) {
		return fmt.Errorf("hand-driven Driver result differs from the reference")
	}
	return nil
}

func setupBatchDense(e *env) (workload, error) {
	s := experiments.DefaultSettings()
	seedScenario(&s, e.seed)
	return setupMaterialized(e, s, sim.Options{})
}

func setupBatchRetrainDrift(e *env) (workload, error) {
	s := experiments.DefaultSettings()
	s.Functions = driftFunctions
	// From the boundary on every function slides 15 slots a day later, so
	// what Train learned goes stale and the retrains have something to chase.
	seedScenario(&s, e.seed, trace.Phase{Kind: trace.PhaseDrift, Start: s.TrainDays * 1440, Fraction: 1, Amplitude: 15})
	return setupMaterialized(e, s, sim.Options{RetrainEvery: retrainEvery})
}

// setupMaterialized is the set-up of the two unsharded SPES workloads. The
// reference is the sharded engine's result, which DESIGN.md's merge contract
// makes bit-identical, so the check spans two engines rather than one run
// compared with itself.
func setupMaterialized(e *env, s experiments.Settings, opts sim.Options) (workload, error) {
	_, train, simTr, err := generate(e, s)
	if err != nil {
		return nil, err
	}
	refOpts := opts
	refOpts.Shards = 4
	ref, err := sim.Run(core.New(s.SPES), train, simTr, refOpts)
	if err != nil {
		return nil, err
	}
	e.corruptResult(ref)
	b := &batch{env: e, cfg: s.SPES, train: train, simTr: simTr, events: eventCount(simTr), shards: 1}
	b.calls = []engineCall{spesCall(s.SPES, ref, func(p sim.Policy, _ *tracedRun) (*sim.Result, error) {
		return sim.Run(p, fresh(train), fresh(simTr), opts)
	})}
	b.probes = func(b *batch, c *layerCtx) error {
		probeCategorize(train, s.SPES, c.m)
		probeSPESTicks(b, c)
		if opts.RetrainEvery > 0 {
			c.m["classify.window_build_s"] = probeWindows(train, simTr, opts.RetrainEvery)
			return nil
		}
		return probeDriver(b, c.m)
	}
	return b, nil
}

// probeWindows times building the retrain window at every boundary of the
// simulation window, as the engines do before each Retrain.
func probeWindows(train, simTr *trace.Trace, every int) float64 {
	t0 := time.Now()
	for t := every; t < simTr.Slots; t += every {
		sim.BuildRetrainWindow(train, simTr, t, train.Slots)
	}
	return time.Since(t0).Seconds()
}

func setupBatchSparseStreamed(e *env) (workload, error) {
	s := experiments.SparseSettings(sparseFunctions, baseSeed)
	seedScenario(&s, e.seed)
	_, train, simTr, err := generate(e, s)
	if err != nil {
		return nil, err
	}
	ref, err := sim.Run(core.New(s.SPES), train, simTr, sim.Options{})
	if err != nil {
		return nil, err
	}
	e.corruptResult(ref)
	b := &batch{env: e, cfg: s.SPES, train: train, simTr: simTr, events: eventCount(simTr), shards: sparseShards}
	b.calls = []engineCall{spesCall(s.SPES, ref, func(p sim.Policy, run *tracedRun) (*sim.Result, error) {
		// A new source per repetition: the generator's structural pass is
		// memoized in the source, and a first run pays for it.
		src, err := experiments.StreamSource(s, sparseShards)
		if err != nil {
			return nil, err
		}
		if run == nil {
			return sim.RunStreamed(p, src, sim.Options{})
		}
		return sim.RunStreamed(p, &tracedSource{fingerprintedSource: src, run: run, name: "trace.generate"}, sim.Options{})
	})}
	b.probes = func(b *batch, c *layerCtx) error {
		probeCategorize(train, s.SPES, c.m)
		probeSPESTicks(b, c)
		probePartition(simTr, sparseShards, c.m)
		// Shard production alone, one shard after another, for the bytes the
		// generator allocates; the time comes from the traced run's spans.
		src, err := experiments.StreamSource(s, sparseShards)
		if err != nil {
			return err
		}
		_, c.m["trace.generate_alloc_mb"] = timeAlloc(func() {
			for i := 0; i < sparseShards && err == nil; i++ {
				_, _, err = src.Shard(i)
			}
		})
		return err
	}
	return b, nil
}

// probePartition times the app/user-closed partition and the shard views
// the materialized sharded engines build before they start.
func probePartition(tr *trace.Trace, p int, m map[string]float64) {
	t0 := time.Now()
	part := trace.PartitionFunctions(tr.Functions, p)
	for i := 0; i < p; i++ {
		tr.ShardBy(part, i)
	}
	m["trace.partition_s"] = time.Since(t0).Seconds()
}

func setupBatchCapacity(e *env) (workload, error) {
	s := experiments.SparseSettings(sparseFunctions, baseSeed)
	seedScenario(&s, e.seed)
	_, train, simTr, err := generate(e, s)
	if err != nil {
		return nil, err
	}
	capacity := sparseFunctions / capacityFraction
	policies := []struct {
		name string
		make func() sim.Policy
	}{
		{"faascache", func() sim.Policy { return baselines.NewFaaSCache(capacity) }},
		{"lcs", func() sim.Policy { return baselines.NewLCS(capacity) }},
	}
	b := &batch{env: e, train: train, simTr: simTr, events: eventCount(simTr)}
	for _, pol := range policies {
		t0 := time.Now()
		ref, err := sim.Run(pol.make(), train, simTr, sim.Options{Shards: 1})
		if err != nil {
			return nil, err
		}
		e.stats["baselines."+pol.name+".unsharded_s"] = time.Since(t0).Seconds()
		e.corruptResult(ref)
		b.calls = append(b.calls, engineCall{name: pol.name + ".", ref: ref, call: func(*tracedRun) (*sim.Result, error) {
			return sim.Run(pol.make(), fresh(train), fresh(simTr), sim.Options{Shards: capacityShards})
		}})
	}
	b.probes = func(b *batch, c *layerCtx) error {
		probePartition(simTr, capacityShards, c.m)
		for _, pol := range policies {
			us, allocs, mallocs := tickLoop(pol.make(), train, simTr)
			c.m["baselines."+pol.name+".tick_us"] = us
			c.counts[pol.name+".tick_loop_mallocs"] = mallocs
			if pol.name == "faascache" {
				c.m["baselines.faascache.tick_allocs"] = allocs
			}
			sharded := c.untraced[pol.name+".run_s"]
			c.m["baselines."+pol.name+".run_s"] = sharded
			c.m["sim.capacity.lockstep_ratio."+pol.name] = sharded / c.stats["baselines."+pol.name+".unsharded_s"]
			c.m["baselines."+pol.name+".cold_starts"] = float64(c.counts[pol.name+".cold_starts"])
		}
		return nil
	}
	return b, nil
}
