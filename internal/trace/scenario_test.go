package trace

import (
	"reflect"
	"testing"

	"repro/internal/stats"
)

// scenarioCfg is a 300-function, 6-day workload with the named scenario
// positioned at a 4-day train/sim split.
func scenarioCfg(t *testing.T, name string, seed int64) GeneratorConfig {
	t.Helper()
	cfg := DefaultGeneratorConfig(300, 6, seed)
	sc, err := NamedScenario(name, 4*1440, cfg.Days*1440)
	if err != nil {
		t.Fatalf("NamedScenario(%q): %v", name, err)
	}
	sc.Seed = seed
	cfg.Scenario = sc
	return cfg
}

// TestScenarioShardedGenerationMatchesUnsharded asserts the scenario
// transform contract: for every library scenario, generating shard by shard
// (the streamed engine's path) yields bit-identical series to the full
// generation, function for function through the Global mapping.
func TestScenarioShardedGenerationMatchesUnsharded(t *testing.T) {
	for _, name := range ScenarioNames() {
		cfg := scenarioCfg(t, name, 7)
		full, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		l, err := BuildGenLayout(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		const p = 3
		seen := make([]bool, full.NumFunctions())
		for i := 0; i < p; i++ {
			_, sh, err := l.Shard(i, p, 0)
			if err != nil {
				t.Fatalf("%s shard %d: %v", name, i, err)
			}
			for li, g := range sh.Global {
				if seen[g] {
					t.Fatalf("%s: function %d in two shards", name, g)
				}
				seen[g] = true
				if sh.Trace.Functions[li].Name != full.Functions[g].Name ||
					sh.Trace.Functions[li].Trigger != full.Functions[g].Trigger {
					t.Fatalf("%s: f%d metadata differs", name, g)
				}
				if !reflect.DeepEqual(sh.Trace.Series[li], full.Series[g]) {
					t.Fatalf("%s: f%d series differs between sharded and full generation", name, g)
				}
			}
		}
		for g, ok := range seen {
			if !ok {
				t.Fatalf("%s: function %d missing from shard union", name, g)
			}
		}
	}
}

// TestScenarioSteadyIsStationary asserts the steady scenario (and the zero
// ScenarioConfig) leaves the generated workload bit-identical to the base
// config, so every existing result and bench stays valid.
func TestScenarioSteadyIsStationary(t *testing.T) {
	base, err := Generate(DefaultGeneratorConfig(300, 6, 7))
	if err != nil {
		t.Fatal(err)
	}
	steady, err := Generate(scenarioCfg(t, "steady", 7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Series, steady.Series) {
		t.Fatal("steady scenario perturbed the generated series")
	}
}

// TestScenarioChurnBirthsAndRetires asserts the churn scenario actually
// produces both cohorts mid-simulation: functions silent through training
// that first fire afterwards, and trained functions that never fire again.
func TestScenarioChurnBirthsAndRetires(t *testing.T) {
	const simStart = 4 * 1440
	base, err := Generate(DefaultGeneratorConfig(300, 6, 7))
	if err != nil {
		t.Fatal(err)
	}
	churned, err := Generate(scenarioCfg(t, "churn", 7))
	if err != nil {
		t.Fatal(err)
	}
	births, retires, changed := 0, 0, 0
	for fid := range churned.Series {
		if !reflect.DeepEqual(base.Series[fid], churned.Series[fid]) {
			changed++
		}
		s := churned.Series[fid]
		if len(base.Series[fid]) == 0 || len(s) == 0 {
			continue
		}
		if s.FirstSlot() >= simStart && base.Series[fid].FirstSlot() < simStart {
			births++
		}
		if s.LastSlot() < simStart && base.Series[fid].LastSlot() >= simStart {
			retires++
		}
	}
	if births == 0 || retires == 0 {
		t.Fatalf("churn produced %d births and %d retirements, want both > 0", births, retires)
	}
	if changed == 0 || changed == len(churned.Series) {
		t.Fatalf("churn changed %d/%d functions, want a proper cohort", changed, len(churned.Series))
	}
}

// TestScenarioFlashCrowdDensifiesWindow asserts flash-crowd cohort members
// fire every slot of the burst window.
func TestScenarioFlashCrowdDensifiesWindow(t *testing.T) {
	cfg := scenarioCfg(t, "flashcrowd", 7)
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ph := cfg.Scenario.Phases[0]
	dense := 0
	for _, s := range tr.Series {
		w := s.Window(int32(ph.Start), int32(ph.End))
		if len(w) == ph.End-ph.Start {
			dense++
		}
	}
	want := int(float64(tr.NumFunctions()) * ph.Fraction)
	if dense < want/2 {
		t.Fatalf("only %d functions fire every burst slot, want ~%d", dense, want)
	}
}

// TestScenarioTransformDeterminism asserts the transform is a pure function
// of (config, fid, series): re-applying it yields identical output.
func TestScenarioTransformDeterminism(t *testing.T) {
	sc, err := NamedScenario("deploy-wave", 1440, 4*1440)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 3
	base := []Event{{Slot: 10, Count: 1}, {Slot: 2000, Count: 2}, {Slot: 5000, Count: 1}}
	a := sc.transform(stats.NewRNG(0), 42, append([]Event(nil), base...), 4*1440)
	b := sc.transform(stats.NewRNG(0), 42, append([]Event(nil), base...), 4*1440)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("transform not deterministic: %v vs %v", a, b)
	}
}

// TestScenarioValidation asserts malformed scenarios are rejected before
// the structural pass, and unknown library names error cleanly.
func TestScenarioValidation(t *testing.T) {
	bad := []ScenarioConfig{
		{Phases: []Phase{{Kind: numPhaseKinds}}},
		{Phases: []Phase{{Kind: PhaseDrift, Start: -1}}},
		{Phases: []Phase{{Kind: PhaseDrift, Start: 10, End: 5}}},
		{Phases: []Phase{{Kind: PhaseDrift, Fraction: 1.5}}},
		{Phases: []Phase{{Kind: PhaseWave, Fraction: 0.5}}}, // no period
		{Phases: []Phase{{Kind: PhaseChurn, Start: 6 * 1440}}},
	}
	for i, sc := range bad {
		cfg := DefaultGeneratorConfig(50, 6, 1)
		cfg.Scenario = sc
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
	}
	if _, err := NamedScenario("nope", 0, 1440); err == nil {
		t.Error("unknown scenario name accepted")
	}
	if _, err := NamedScenario("drift", 1440, 1440); err == nil {
		t.Error("out-of-range simulation start accepted")
	}
	for _, name := range ScenarioNames() {
		if _, err := NamedScenario(name, 1440, 2*1440); err != nil {
			t.Errorf("library scenario %q invalid: %v", name, err)
		}
	}
}

// TestScenarioNormalize pins the canonicalization rule: a phase-less
// scenario collapses to the zero value (so "steady" built from the library
// hashes and fingerprints exactly like an untouched GeneratorConfig),
// while phased scenarios pass through unchanged.
func TestScenarioNormalize(t *testing.T) {
	steady := ScenarioConfig{Name: "steady", Seed: 42}
	if n := steady.Normalize(); !reflect.DeepEqual(n, ScenarioConfig{}) {
		t.Errorf("steady normalized to %+v, want the zero value", n)
	}
	drift, err := NamedScenario("drift", 1440, 4*1440)
	if err != nil {
		t.Fatal(err)
	}
	drift.Seed = 42
	if n := drift.Normalize(); !reflect.DeepEqual(n, drift) {
		t.Errorf("phased scenario altered by Normalize: %+v vs %+v", n, drift)
	}
}

// TestScenarioChurnSilencesChains asserts a scenario that empties a chain
// driver's series silences its followers too (the chain follows the
// TRANSFORMED driver), instead of flipping them into fresh independent
// synthesis with history the scenario says should not exist.
func TestScenarioChurnSilencesChains(t *testing.T) {
	cfg := DefaultGeneratorConfig(400, 4, 11)
	cfg.ChainFraction = 1
	cfg.MeanAppSize = 4
	cfg.Scenario = ScenarioConfig{
		Seed:   11,
		Phases: []Phase{{Kind: PhaseChurn, Start: 0, Fraction: 1}},
	}
	baseCfg := cfg
	baseCfg.Scenario = ScenarioConfig{}
	base, err := Generate(baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := BuildGenLayout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, sh, err := l.Shard(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	silenced := 0
	for _, a := range l.apps {
		if !a.chained || a.size < 2 {
			continue
		}
		// Only drivers that were ACTIVE in the stationary base workload and
		// churned to silence retire their chain; a base-silent driver's
		// followers synthesize independently (pre-scenario behaviour).
		if len(base.Series[a.first]) == 0 || len(sh.Trace.Series[a.first]) != 0 {
			continue
		}
		silenced++
		for k := 1; k < int(a.size); k++ {
			if s := sh.Trace.Series[int(a.first)+k]; len(s) != 0 {
				t.Fatalf("app %d: driver fully churned but follower %d still fires (%d events)", a.app, k, len(s))
			}
		}
	}
	if silenced == 0 {
		t.Fatal("no fully churned chain driver at this seed; the invariant was not exercised")
	}
}
