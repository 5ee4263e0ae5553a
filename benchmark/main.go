// Command benchmark is the repository's benchmark: seven workloads over the
// batch simulator, the serving daemon and the CSV-to-store ingest path, each
// measured end to end by untraced repetitions and layer by layer by a traced
// run. BENCHMARK.json at the repository root is its contract; README.md in
// this directory is its catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// metric is one named number of a result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// def declares a metric the benchmark reports: its unit and, for an
// end-to-end metric, the direction and the bound BENCHMARK.json repeats.
type def struct {
	name, unit string
	higher     bool
}

// endToEnd lists the metrics every workload reports from its untraced
// repetitions. BENCHMARK.json repeats them with their bounds, and
// main_test.go holds the two lists together.
var endToEnd = []def{
	{name: "setup_s", unit: "s"},
	{name: "run_s", unit: "s"},
	{name: "alloc_mb", unit: "MB"},
	{name: "events_per_s", unit: "events/s", higher: true},
	{name: "global_csr", unit: "ratio"},
	{name: "wmt_minutes", unit: "min"},
}

// spec names a workload, says why it exists, and builds it.
type spec struct {
	name, why string
	setup     func(*env) (workload, error)
}

var workloads = []spec{
	{"batch-dense", "the paper's 2000-function 14/12-day split: offline categorization in Train, then Tick and accounting; sharding, I/O and serve idle", setupBatchDense},
	{"batch-retrain-drift", "drifting trace with three online retrains: classify used online over rebuilt windows, quality under non-stationarity", setupBatchRetrainDrift},
	{"batch-sparse-streamed", "mostly-idle population streamed in 16 generated shards: shard production, scheduler, prefetch and merge; the multi-core path", setupBatchSparseStreamed},
	{"batch-capacity", "FaaSCache then LCS over 8 shards: the lockstep capacity arbiter and the baselines' eviction cores, SPES and classify idle", setupBatchCapacity},
	{"serve-slot", "one closed-loop HTTP client, one slot per request: per-request parse, journal write and reply dominate; decision latency", setupServeSlot},
	{"serve-bulk", "16 slots per request, then close and restart: Driver.Step, Tick and journal encode dominate; restore reads what serving wrote", setupServeBulk},
	{"ingest-store", "Azure-schema CSV into the columnar store, then a store-sourced run: CSV parse, spill, encode, verify and decode", setupIngestStore},
}

// workload is a set-up workload: it runs repetitions and, in the traced
// mode, its single-layer probes.
type workload interface {
	// rep runs one repetition; tr is nil on an untraced one, and op
	// identifies the repetition in the spans of a traced one.
	rep(op int, tr *tracer) (*repOut, error)
	// layers runs the probes that measure one layer alone.
	layers(c *layerCtx) error
}

// env is what a set-up gets: the seed, a directory of its own, and a place
// to record what its phases cost.
type env struct {
	workload string
	seed     int64
	dir      string
	stats    map[string]float64
	// corrupt makes the set-up damage its reference results, so the tests
	// can see a failed check reach the exit code.
	corrupt bool
}

func (e *env) corruptResult(r *sim.Result) {
	if e.corrupt {
		r.TotalColdStarts++
	}
}

// repOut is one repetition's outcome. sample values are medianed across
// repetitions; exact values and counts must repeat exactly; layer values are
// the per-layer metrics a traced repetition derives from its spans.
type repOut struct {
	sample, exact, layer map[string]float64
	counts               map[string]int64
	attempted, failed    int
	errs                 []string
}

func newRepOut() *repOut {
	return &repOut{sample: map[string]float64{}, exact: map[string]float64{}, layer: map[string]float64{}, counts: map[string]int64{}}
}

func (o *repOut) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// layerCtx carries what the single-layer probes read and write.
type layerCtx struct {
	untraced map[string]float64 // medians of the untraced repetitions' samples
	stats    map[string]float64 // set-up statistics
	m        map[string]float64 // per-layer metrics
	counts   map[string]int64
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	spans    string
	corrupt  bool // tests only
}

const (
	setupsUntraced = 3 // set-ups per run; setup_s is their median
	minReps        = 5
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 8, "how long to measure")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced mode and reports the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "append the full result as one JSON line to this file")
	fs.StringVar(&o.spans, "spans", "", "span file of the traced mode (default: spes-bench-spans-<workload>.jsonl in the temp directory)")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.jsonl b.jsonl")
	bounds := fs.String("bounds", "BENCHMARK.json", "file the bounds of -compare are read from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return runCompare(*bounds, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	var sp *spec
	for i := range workloads {
		if workloads[i].name == o.workload {
			sp = &workloads[i]
		}
	}
	if sp == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := measure(*sp, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return emit(res, o, stdout, stderr)
}

// emit prints the report and the contract line, stores the full result when
// asked to, and returns the exit code: non-zero when a check failed.
func emit(res *result, o options, stdout, stderr io.Writer) int {
	res.report(stdout)
	if o.out != "" {
		if err := appendJSONLine(o.out, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(res.contractLine())
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// summary is a metric's distribution over the repetitions of one run.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

// result is everything one invocation measured; -out stores it, -compare
// reads it back.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Env       environment        `json:"env"`
	Reps      map[string]int     `json:"repetitions"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	Samples   map[string]summary `json:"samples"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
	Counts    map[string]int64   `json:"counts"`
	// TracedWall is the median wall time of a traced repetition, from its
	// root span, and SelfShare the share of it the layers' self times add up
	// to (median of the per-repetition shares).
	TracedWall float64 `json:"traced_wall_s,omitempty"`
	SelfShare  float64 `json:"self_time_share,omitempty"`
	SpanFile   string  `json:"span_file,omitempty"`
}

type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	e := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// measure sets the workload up, runs its repetitions for o.seconds and, in
// the traced mode, its traced repetitions and probes. All files live under
// one temporary directory that is removed before it returns, whatever the
// outcome; only the span file outlives the run.
func measure(sp spec, o options, stderr io.Writer) (*result, error) {
	tmp, err := os.MkdirTemp("", "spes-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	res := &result{
		Workload: sp.name, Seed: o.seed, Traced: o.trace == 1, Correct: true,
		Env: readEnvironment(), Reps: map[string]int{},
		EndToEnd: map[string]summary{}, Samples: map[string]summary{}, Counts: map[string]int64{},
	}

	// Set-up, several times when its time is a reported metric.
	setups := setupsUntraced
	if res.Traced {
		setups = 1
	}
	var w workload
	var e *env
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		w = nil // let the previous set-up's traces go before building the next
		runtime.GC()
		e = &env{workload: sp.name, seed: o.seed, dir: filepath.Join(tmp, fmt.Sprintf("setup%d", i)), stats: map[string]float64{}, corrupt: o.corrupt}
		if err := os.Mkdir(e.dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if w, err = sp.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i < setups-1 {
			os.RemoveAll(e.dir)
		}
	}
	res.Reps["setup"] = setups
	res.EndToEnd["setup_s"] = summarize(setupTimes)

	if _, err := w.rep(0, nil); err != nil { // warm-up: caches fill, lazy set-up finishes
		return nil, fmt.Errorf("%s: warm-up: %w", sp.name, err)
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	reps := minReps
	if res.Traced {
		// Half the time for the untraced baseline, half for the traced runs.
		budget /= 2
		reps = 3
	}
	// repeat runs repetitions until both the time and the count are spent.
	repeat := func(kind string, tr *tracer) (*aggregate, error) {
		agg := newAggregate(res)
		start := time.Now()
		for n := 1; n <= reps || time.Since(start) < budget; n++ {
			out, err := w.rep(n, tr)
			if err != nil {
				return nil, fmt.Errorf("%s: %s repetition %d: %w", sp.name, kind, n, err)
			}
			agg.add(out)
		}
		res.Reps[kind] = agg.reps
		return agg, nil
	}
	agg, err := repeat("untraced", nil)
	if err != nil {
		return nil, err
	}

	if res.Traced && res.Correct {
		tr := newTracer()
		tagg, err := repeat("traced", tr)
		if err != nil {
			return nil, err
		}
		untraced := medians(agg.samples)
		c := &layerCtx{untraced: untraced, stats: e.stats, m: medians(tagg.layers), counts: res.Counts}
		for k, v := range e.stats {
			if _, ok := c.m[k]; !ok { // a traced repetition's own measurement wins
				c.m[k] = v
			}
		}
		for _, d := range pathMetrics {
			if v, ok := agg.exact[d.name]; ok {
				c.m[d.name] = v
			} else {
				c.m[d.name] = untraced[d.name]
			}
		}
		// The same exact values must come out of the traced program.
		for k, v := range tagg.exact {
			if agg.exact[k] != v {
				res.fail("%s: traced run's %s %v differs from the untraced %v", sp.name, k, v, agg.exact[k])
			}
		}
		c.m["trace_overhead_share"] = median(tagg.samples["run_s"])/untraced["run_s"] - 1
		res.TracedWall = median(tagg.samples["traced_wall_s"])
		res.SelfShare = median(tagg.samples["self_time_share"])
		if err := w.layers(c); err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", sp.name, err)
		}
		res.Layers = c.m
		res.SpanFile = o.spans
		if res.SpanFile == "" {
			res.SpanFile = filepath.Join(os.TempDir(), "spes-bench-spans-"+sp.name+".jsonl")
		}
		if err := tr.write(res.SpanFile); err != nil {
			return nil, err
		}
	}

	for k, xs := range agg.samples {
		res.Samples[k] = summarize(xs)
	}
	for _, d := range endToEnd[1:] {
		if xs, ok := agg.samples[d.name]; ok {
			res.EndToEnd[d.name] = summarize(xs)
		} else if v, ok := agg.exact[d.name]; ok {
			res.EndToEnd[d.name] = summary{Median: v, Q1: v, Q3: v, N: agg.reps}
		} else if res.Failed == 0 {
			return nil, fmt.Errorf("%s reported no %s", sp.name, d.name)
		}
	}
	for _, msg := range res.Errors {
		fmt.Fprintln(stderr, "benchmark: check failed:", msg)
	}
	return res, nil
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// aggregate folds repetitions into a result: samples are collected, exact
// values and counts are held to the first repetition's.
type aggregate struct {
	res     *result
	reps    int
	samples map[string][]float64
	layers  map[string][]float64
	exact   map[string]float64
}

func newAggregate(res *result) *aggregate {
	return &aggregate{res: res, samples: map[string][]float64{}, layers: map[string][]float64{}, exact: map[string]float64{}}
}

func (a *aggregate) add(out *repOut) {
	a.reps++
	a.res.Attempted += out.attempted
	a.res.Failed += out.failed
	for _, msg := range out.errs {
		a.res.fail("%s", msg)
	}
	if out.failed > 0 {
		a.res.Correct = false
		return
	}
	for k, v := range out.sample {
		a.samples[k] = append(a.samples[k], v)
	}
	for k, v := range out.layer {
		a.layers[k] = append(a.layers[k], v)
	}
	for k, v := range out.exact {
		if prev, ok := a.exact[k]; ok && prev != v {
			a.res.fail("%s: %s is %v in one repetition and %v in another", a.res.Workload, k, prev, v)
		}
		a.exact[k] = v
	}
	for k, v := range out.counts {
		if prev, ok := a.res.Counts[k]; ok && prev != v {
			a.res.fail("%s: count %s is %d in one repetition and %d in another", a.res.Workload, k, prev, v)
		}
		a.res.Counts[k] = v
	}
}

func medians(samples map[string][]float64) map[string]float64 {
	m := make(map[string]float64, len(samples))
	for k, xs := range samples {
		m[k] = median(xs)
	}
	return m
}

// contractLine is the last line of standard output: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one.
func (r *result) contractLine() map[string]any {
	metrics := map[string]metric{}
	if r.Traced {
		for _, d := range perLayer {
			metrics[d.name] = metric{Value: r.Layers[d.name], Unit: d.unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.name] = metric{Value: r.EndToEnd[d.name].Median, Unit: d.unit}
		}
	}
	return map[string]any{
		"correct":   r.Correct,
		"attempted": max(r.Attempted, 1),
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}

// report prints every metric by name with its unit, then the counts and the
// environment, for a reader; the contract line follows it.
func (r *result) report(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "workload %s  seed %d  traced %v\n", r.Workload, r.Seed, r.Traced)
	fmt.Fprintf(w, "env  nproc %d  GOMAXPROCS %d  %s  cpu %q  commit %s\n", e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.Commit)
	fmt.Fprintf(w, "repetitions  %v\n", r.Reps)
	fmt.Fprintf(w, "operations  attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	units := map[string]string{}
	for _, d := range endToEnd {
		units[d.name] = d.unit
	}
	for _, d := range perLayer {
		units[d.name] = d.unit
	}
	fmt.Fprintf(w, "%-40s %16s %16s %16s  %s\n", "metric", "median", "q1", "q3", "unit")
	all := map[string]summary{}
	for k, s := range r.Samples {
		all[k] = s
	}
	for k, s := range r.EndToEnd {
		all[k] = s
	}
	for _, k := range sortedKeys(all) {
		s := all[k]
		unit := units[k]
		if unit == "" { // a per-call sample such as faascache.run_s
			unit = k[strings.LastIndexByte(k, '_')+1:]
		}
		fmt.Fprintf(w, "%-40s %16.6g %16.6g %16.6g  %s (n=%d)\n", k, s.Median, s.Q1, s.Q3, unit, s.N)
	}
	if r.Traced {
		fmt.Fprintf(w, "%-40s %16s  %s\n", "per-layer metric", "value", "unit")
		for _, k := range sortedKeys(r.Layers) {
			fmt.Fprintf(w, "%-40s %16.6g  %s\n", k, r.Layers[k], units[k])
		}
		fmt.Fprintf(w, "self times add up to %.4g of the %.6g s traced wall time; spans written to %s\n", r.SelfShare, r.TracedWall, r.SpanFile)
	}
	fmt.Fprintln(w, "counts (repeat exactly for a seed):")
	for _, k := range sortedKeys(r.Counts) {
		fmt.Fprintf(w, "  %-38s %d\n", k, r.Counts[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendJSONLine(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
