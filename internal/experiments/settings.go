// Package experiments is the front door every binary walks through — the
// workload flag vocabulary and its one validation, the Workload that hides
// where invocations come from, the policy roster and the Section V-A policy
// table — and the runners that regenerate the paper's tables and figures
// through it, each writing a textual rendition to an io.Writer.
package experiments

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Settings fixes a reproduction run: the workload scale and split plus the
// SPES configuration. The paper's setup is 14 days of trace with the first
// 12 for training (Section V-A).
type Settings struct {
	Functions int
	Days      int
	TrainDays int
	Seed      int64
	SPES      core.Config

	// TriggerMix, when non-nil, overrides the generator's trigger
	// distribution (e.g. trace.SparseTriggerMix for the mostly-idle
	// large-n populations of the scale experiments).
	TriggerMix []float64

	// Scenario applies non-stationary phase transforms (drift, flash
	// crowds, churn, ...) to the generated workload; the zero value keeps
	// it stationary. Build one with trace.NamedScenario (or ApplyScenario
	// to fill it from a library name against these settings' split). A
	// Name without phases — what the -scenario flag leaves behind — is a
	// pending library name: Validate checks it, and every workload
	// constructor positions it at the split before generating.
	Scenario trace.ScenarioConfig

	// Shards sets the population shard count for the runners that execute
	// sharded (the Figure 13 sweeps, whose per-shard cache needs shards to
	// be the unit of work). 0 picks 4. Results are bit-identical
	// for every value — sharding only changes execution, never outcomes.
	Shards int

	// CacheDir, when non-empty, backs the sweep runners' shard cache with
	// an on-disk tier (sim.DiskCache) rooted there, so a re-run of the
	// Figure 13 sweeps in a fresh process — same settings — restores shard
	// outcomes instead of re-simulating them. Entries are content-keyed;
	// results are bit-identical with or without the directory.
	CacheDir string
}

// DefaultSettings returns a laptop-scale default: the full 14-day horizon
// with a population large enough for stable distributions.
func DefaultSettings() Settings {
	return Settings{
		Functions: 2000,
		Days:      14,
		TrainDays: 12,
		Seed:      1,
		SPES:      core.DefaultConfig(),
	}
}

// QuickSettings returns a small configuration: the default of tests,
// benchmarks and the serving pair (spes-serve, spes-load).
func QuickSettings() Settings {
	return Settings{
		Functions: 300,
		Days:      6,
		TrainDays: 4,
		Seed:      1,
		SPES:      core.DefaultConfig(),
	}
}

// RegisterFlags declares the named workload flags — all six of functions,
// days, train-days, seed, scenario and sparse when none is named — on fs,
// bound to s and defaulting to what s holds, so a binary's defaults are its
// starting Settings. This is the only place the vocabulary is spelled. Call
// Validate after fs.Parse. A name outside the vocabulary is a programming
// error and panics.
func (s *Settings) RegisterFlags(fs *flag.FlagSet, names ...string) {
	if len(names) == 0 {
		names = []string{"functions", "days", "train-days", "seed", "scenario", "sparse"}
	}
	for _, name := range names {
		switch name {
		case "functions":
			fs.IntVar(&s.Functions, name, s.Functions, "workload: function count")
		case "days":
			fs.IntVar(&s.Days, name, s.Days, "workload: length in days")
		case "train-days":
			fs.IntVar(&s.TrainDays, name, s.TrainDays, "workload: days used for training; the rest simulate")
		case "seed":
			fs.Int64Var(&s.Seed, name, s.Seed, "workload: generator seed (also seeds scenario cohorts)")
		case "scenario":
			fs.StringVar(&s.Scenario.Name, name, s.Scenario.Name, "workload: non-stationary library scenario ("+
				strings.Join(trace.ScenarioNames(), "|")+") positioned at the train/sim split (empty: stationary)")
		case "sparse":
			fs.BoolFunc(name, "workload: use the mostly-idle trigger mix (large-n regime)", func(v string) error {
				on, err := strconv.ParseBool(v)
				s.TriggerMix = nil
				if on {
					s.TriggerMix = trace.SparseTriggerMix()
				}
				return err
			})
		default:
			panic(fmt.Sprintf("experiments: RegisterFlags: %q is not a workload flag", name))
		}
	}
}

// ValidateScale rejects an empty population or horizon: the part of
// Validate that also holds for an unsplit trace (tracegen without
// -train-days).
func (s Settings) ValidateScale() error {
	if s.Functions <= 0 {
		return fmt.Errorf("experiments: need a positive function count, got %d", s.Functions)
	}
	if s.Days <= 0 {
		return fmt.Errorf("experiments: need a positive day count, got %d", s.Days)
	}
	return nil
}

// Validate rejects an impossible workload: an empty population, a split
// that leaves the training or the simulation window empty, or a pending
// scenario name the library does not have. It is the only validation of the
// workload vocabulary; binaries print its error and exit 1.
func (s Settings) Validate() error {
	_, err := s.resolved()
	return err
}

// resolved is s validated, with a pending scenario name positioned at the
// split: what every workload constructor generates from.
func (s Settings) resolved() (Settings, error) {
	if err := s.ValidateScale(); err != nil {
		return s, err
	}
	if s.TrainDays <= 0 || s.TrainDays >= s.Days {
		return s, fmt.Errorf("experiments: train days %d must fall inside (0, %d)", s.TrainDays, s.Days)
	}
	if !s.Scenario.Enabled() {
		if err := s.ApplyScenario(s.Scenario.Name); err != nil {
			return s, err
		}
	}
	return s, nil
}

// GeneratorConfig is the generator configuration of s's workload, with
// s.Scenario as it stands.
func (s Settings) GeneratorConfig() trace.GeneratorConfig {
	cfg := trace.DefaultGeneratorConfig(s.Functions, s.Days, s.Seed)
	cfg.TriggerMix = s.TriggerMix
	cfg.Scenario = s.Scenario
	return cfg
}

// BuildWorkload generates the full trace and splits it into training and
// simulation windows.
func BuildWorkload(s Settings) (full, train, simTr *trace.Trace, err error) {
	if s, err = s.resolved(); err != nil {
		return nil, nil, nil, err
	}
	full, err = trace.Generate(s.GeneratorConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	train, simTr = full.Split(s.TrainDays * 1440)
	return full, train, simTr, nil
}

// StreamSource returns the streamed-engine form of BuildWorkload: a
// sim.GeneratorSource yielding the same train/sim pair as BuildWorkload(s),
// one population shard at a time, so sim.RunStreamed holds O(n/shards)
// event series per in-flight worker instead of the whole trace. Results are
// bit-identical to the materialized engines (the streamed equivalence tests
// assert it).
func StreamSource(s Settings, shards int) (*sim.GeneratorSource, error) {
	s, err := s.resolved()
	if err != nil {
		return nil, err
	}
	return &sim.GeneratorSource{Cfg: s.GeneratorConfig(), TrainSlots: s.TrainDays * 1440, Shards: shards}, nil
}

// ApplyScenario fills s.Scenario from a library scenario name (see
// trace.ScenarioNames), positioned at these settings' train/sim split and
// seeded with the CURRENT workload seed — callers varying s.Seed across
// runs must re-apply so the scenario cohorts vary with it. "steady" (or
// "") leaves s.Scenario the zero value, bit-compatible (and cache-key-
// compatible) with never having called this.
func (s *Settings) ApplyScenario(name string) error {
	if name == "" {
		name = "steady"
	}
	sc, err := trace.NamedScenario(name, s.TrainDays*1440, s.Days*1440)
	if err != nil {
		return err
	}
	sc.Seed = s.Seed
	s.Scenario = sc.Normalize()
	return nil
}

// SparseSettings returns the scale-experiment configuration: n mostly-idle
// functions (trace.SparseTriggerMix) over 8 days with 6 for training, the
// population shape where event-driven O(active) scheduling and sharding
// separate from dense scans by orders of magnitude.
func SparseSettings(n int, seed int64) Settings {
	return Settings{
		Functions:  n,
		Days:       8,
		TrainDays:  6,
		Seed:       seed,
		SPES:       core.DefaultConfig(),
		TriggerMix: trace.SparseTriggerMix(),
	}
}
