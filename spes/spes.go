// Package spes is the public API of the SPES reproduction: a differentiated
// serverless function provisioning scheduler (Lee et al., ICDE 2024) with
// the workload substrate, simulator, and baseline schedulers its evaluation
// depends on.
//
// The typical flow:
//
//	cfg := spes.DefaultGeneratorConfig(2000, 14, 1)   // or read a real trace CSV
//	full, _ := spes.GenerateTrace(cfg)
//	train, simTr := full.Split(12 * 1440)             // 12 days train, 2 days simulate
//
//	policy := spes.NewSPES(spes.DefaultSPESConfig())
//	res, _ := spes.Run(policy, train, simTr, spes.Options{})
//	fmt.Println(res.QuantileCSR(0.75), res.MeanLoaded())
//
// Real traces are ingested once into a columnar shard store and simulated
// from it many times without re-parsing the CSV:
//
//	st, _, _ := spes.IngestTraceCSV(csvFile, "./azstore", spes.TraceIngestOptions{Shards: 8})
//	src, _ := st.Source(12 * 1440)                    // train/sim split in slots
//	res, _ := spes.RunStreamed(policy, src, spes.Options{})
//
// Custom schedulers implement the Policy interface and run under the same
// simulator and metrics; see examples/custompolicy.
package spes

import (
	"io"

	"repro/internal/baselines"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Workload types re-exported from the trace substrate.
type (
	// Trace is a complete workload: function metadata plus a per-minute
	// invocation series per function.
	Trace = trace.Trace
	// Function is per-function metadata (anonymized owner, app, trigger).
	Function = trace.Function
	// FuncID identifies a function within a Trace.
	FuncID = trace.FuncID
	// Event is one sparse invocation observation (slot, count).
	Event = trace.Event
	// Series is a sparse per-minute invocation series.
	Series = trace.Series
	// Trigger enumerates Azure Functions trigger types.
	Trigger = trace.Trigger
	// FuncCount is one function's invocation count within a slot.
	FuncCount = trace.FuncCount
	// GeneratorConfig parameterizes the synthetic Azure-like workload.
	GeneratorConfig = trace.GeneratorConfig
)

// Trigger values (Figure 5's categories).
const (
	TriggerHTTP          = trace.TriggerHTTP
	TriggerTimer         = trace.TriggerTimer
	TriggerQueue         = trace.TriggerQueue
	TriggerOrchestration = trace.TriggerOrchestration
	TriggerEvent         = trace.TriggerEvent
	TriggerStorage       = trace.TriggerStorage
	TriggerOthers        = trace.TriggerOthers
	TriggerCombination   = trace.TriggerCombination
)

// Simulation types re-exported from the simulator substrate.
type (
	// Policy is the scheduler interface every provisioner implements.
	Policy = sim.Policy
	// Result is a simulation outcome with all the paper's metrics.
	Result = sim.Result
	// FuncMetrics is one function's simulation outcome.
	FuncMetrics = sim.FuncMetrics
	// Options tunes a simulation run. Under the sharded engine the
	// population is split into app/user-closed shards, one policy instance
	// per shard runs concurrently, and the merged Result is bit-identical
	// to the unsharded run. Options.Shards > 1 selects it; the default, 0,
	// selects it for a ShardedPolicy, GOMAXPROCS shards wide, and 1 keeps
	// the single-population engine.
	Options = sim.Options
	// ShardedPolicy is implemented by policies that can run one instance
	// per population shard (SPES, FixedKeepAlive, both Hybrids, Defuse).
	ShardedPolicy = sim.ShardedPolicy
	// CapacityPolicy marks policies that evict against one global budget
	// (FaaSCache, LCS) and therefore cannot shard: under Options.Shards > 1
	// or a streamed source they run one instance over the whole population,
	// so the Result is the unsharded one.
	CapacityPolicy = sim.CapacityPolicy
)

// SPES configuration types.
type (
	// Config is the full SPES parameter set, ablation switches included.
	Config = core.Config
	// ClassifyConfig carries θ_prewarm and the per-type θ_givenup, the
	// thresholds the offline scoring shares with provision; every other
	// threshold of Section IV is a constant.
	ClassifyConfig = classify.Config
	// FunctionType is a SPES category (regular, dense, pulsed, ...).
	FunctionType = classify.Type
	// Profile is a function's categorization outcome.
	Profile = classify.Profile
)

// SPES is the paper's scheduler; construct with NewSPES.
type SPES = core.SPES

// DefaultSPESConfig returns the paper's evaluation settings
// (theta_prewarm = 2, theta_givenup = 5 for dense/pulsed and 1 otherwise,
// alpha = 0.5, T-COR threshold 0.5 with T <= 10).
func DefaultSPESConfig() Config { return core.DefaultConfig() }

// NewSPES builds the SPES policy. Run trains what it simulates. By default
// (Options.Shards 0) the instance is a template Run clones once per shard,
// so read the outcome, category labels included, from the Result; to train
// or inspect the instance itself, run it with Options.Shards 1.
func NewSPES(cfg Config) *SPES { return core.New(cfg) }

// DefaultGeneratorConfig returns the calibrated synthetic-workload defaults
// for n functions over days days (see DESIGN.md for the calibration).
func DefaultGeneratorConfig(n, days int, seed int64) GeneratorConfig {
	return trace.DefaultGeneratorConfig(n, days, seed)
}

// GenerateTrace synthesizes an Azure-like workload.
func GenerateTrace(cfg GeneratorConfig) (*Trace, error) { return trace.Generate(cfg) }

// NewTrace creates an empty workload spanning the given number of
// one-minute slots; add functions with AddFunction.
func NewTrace(slots int) *Trace { return trace.NewTrace(slots) }

// ReadTraceCSV parses an Azure-schema trace CSV (day files may be
// concatenated).
func ReadTraceCSV(r io.Reader) (*Trace, error) { return trace.ReadCSV(r) }

// Run trains the policy on training (nil skips the offline phase) and
// simulates it over simTrace. A ShardedPolicy (SPES, FixedKeepAlive, both
// Hybrids, Defuse) runs on every core by default: one clone per shard,
// GOMAXPROCS shards, merged into the Result the single-population engine
// (Options.Shards 1) returns. The passed policy is then only a template,
// neither trained nor ticked.
func Run(policy Policy, training, simTrace *Trace, opts Options) (*Result, error) {
	return sim.Run(policy, training, simTrace, opts)
}

// Source produces population shards on demand for RunStreamed: the
// simulation pulls one shard's train/sim views at a time, so peak memory is
// O(functions/shards) event series per worker, never the whole trace.
// TraceStore.Source and the generator's streaming path both satisfy it.
type Source = sim.Source

// RunStreamed simulates the policy over a Source with the shard as the unit
// of residency. Results are bit-identical to Run over the equivalent
// materialized trace pair.
func RunStreamed(policy Policy, src Source, opts Options) (*Result, error) {
	return sim.RunStreamed(policy, src, opts)
}

// Columnar shard store types: real traces ingested once, simulated many
// times without re-parsing the CSV.
type (
	// TraceStore is an on-disk columnar shard store built by IngestTraceCSV:
	// one verified columnar file per app/user-closed shard (a CRC-32C over
	// each file, recorded in the manifest) plus the manifest. Open it with
	// OpenTraceStore.
	TraceStore = trace.Store
	// TraceStoreSource adapts a TraceStore to the streamed simulation engine
	// (Source) at a chosen train/sim split.
	TraceStoreSource = trace.StoreSource
	// TraceIngestOptions tunes IngestTraceCSV (shard count, spill budget).
	TraceIngestOptions = trace.IngestOptions
	// TraceIngestStats reports what an ingestion pass wrote.
	TraceIngestStats = trace.IngestStats
)

// ErrTraceStoreCorrupt reports a store whose manifest or shard files fail
// verification (torn write, bit rot, version skew). Matchable with
// errors.Is; the remedy is re-ingesting the CSV — a corrupt store never
// yields shard content.
var ErrTraceStoreCorrupt = trace.ErrStoreCorrupt

// IngestTraceCSV streams an Azure-schema CSV into a columnar shard store at
// dir in one pass, partitioned into opts.Shards app/user-closed shards
// (the partition the sharded engine computes for Options.Shards). Memory
// stays bounded by the spill budget regardless of CSV size.
func IngestTraceCSV(r io.Reader, dir string, opts TraceIngestOptions) (*TraceStore, *TraceIngestStats, error) {
	return trace.IngestCSV(r, dir, opts)
}

// OpenTraceStore opens an existing store directory, verifying its manifest.
func OpenTraceStore(dir string) (*TraceStore, error) { return trace.OpenStore(dir) }

// ErrNotShardable reports a policy that implements neither ShardedPolicy
// nor CapacityPolicy under Options.Shards > 1: the sharded engine's
// sentinel, matchable with errors.Is through Run's and RunStreamed's
// wrapping.
var ErrNotShardable = sim.ErrNotShardable

// Baseline constructors (the paper's comparison points).

// NewFixedKeepAlive returns the fixed keep-alive policy (the paper uses 10
// minutes).
func NewFixedKeepAlive(minutes int) Policy { return baselines.NewFixedKeepAlive(minutes) }

// NewHybridFunction returns the histogram policy of Shahrad et al. at
// function granularity (HF).
func NewHybridFunction() Policy { return baselines.NewHybridFunction() }

// NewHybridApplication returns the histogram policy at application
// granularity (HA), the original paper's unit.
func NewHybridApplication() Policy { return baselines.NewHybridApplication() }

// NewDefuse returns the dependency-mining scheduler of Shen et al.
func NewDefuse() Policy { return baselines.NewDefuse() }

// NewFaaSCache returns the Greedy-Dual caching policy of Fuerst & Sharma
// with the given instance capacity (the paper sets it to SPES's maximum
// memory).
func NewFaaSCache(capacity int) Policy { return baselines.NewFaaSCache(capacity) }

// NewLCS returns the LRU warm-container policy of Sethi et al. (extension).
func NewLCS(capacity int) Policy { return baselines.NewLCS(capacity) }
