package trace

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Non-stationary workload scenarios: a ScenarioConfig composes phase-based
// transforms over the generator's output, turning the stationary synthetic
// workload into one whose behaviour changes mid-trace — pattern drift, flash
// crowds, abrupt phase shifts, function churn, redeployment waves — the
// failure modes a production pre-warming system faces and the fixed
// train/sim split of the paper never exercises.
//
// The transform contract (what keeps streamed == materialized == dense
// bit-identical, see DESIGN.md "Scenario transforms"): every transform is a
// pure function of (scenario config, the function's GLOBAL FuncID, its base
// series). All transform randomness comes from a dedicated per-function RNG
// seeded by (Scenario.Seed, global FuncID) — never from the generator's
// structural stream and never from another function's draws — so applying a
// scenario per shard, in any shard order, at any shard count, yields exactly
// the series the unsharded generation would. Chain followers are the one
// deliberate exception: they derive from their driver's TRANSFORMED series
// (a retired driver silences its chain, a flash crowd propagates through
// it) and are not independently transformed, which is still per-app
// deterministic because driver and followers always share a shard.

// PhaseKind enumerates the scenario transform kinds.
type PhaseKind uint8

// Transform kinds. Each reads the Phase fields it needs: Start/End bound
// the affected window (End 0 means the trace end), Fraction is the share of
// functions in the cohort, Amplitude and Period are kind-specific.
const (
	// PhaseDrift shifts the cohort's events progressively later (Amplitude
	// slots per day elapsed since Start; negative drifts earlier), so a
	// pattern that was periodic in training slides away from its trained
	// phase — diurnal drift.
	PhaseDrift PhaseKind = iota
	// PhaseFlashCrowd makes the cohort fire every slot of [Start, End) with
	// max(1, Amplitude) invocations: a sudden traffic spike on functions
	// whose history predicted nothing of the sort.
	PhaseFlashCrowd
	// PhaseShift re-synthesizes the cohort's behaviour from Start on: a new
	// archetype drawn from the scenario RNG replaces the old series for the
	// rest of the trace — the abrupt concept shift of Figure 4, at a chosen
	// slot instead of a generator-chosen one.
	PhaseShift
	// PhaseChurn births or retires (an even split, drawn per function) the
	// cohort at a slot uniform in [Start, End): born functions are silent
	// before it, retired ones permanently silent after it.
	PhaseChurn
	// PhaseWave is a redeployment wave: each cohort function is assigned one
	// of the Period-spaced waves in [Start, End); at its wave slot the old
	// behaviour stops, the function stays silent for Amplitude slots of
	// deploy downtime, then resumes with a freshly drawn archetype (the new
	// version's traffic).
	PhaseWave
	numPhaseKinds
)

var phaseKindNames = [...]string{
	PhaseDrift:      "drift",
	PhaseFlashCrowd: "flash-crowd",
	PhaseShift:      "shift",
	PhaseChurn:      "churn",
	PhaseWave:       "wave",
}

// String names the transform kind.
func (k PhaseKind) String() string {
	if int(k) < len(phaseKindNames) {
		return phaseKindNames[k]
	}
	return fmt.Sprintf("phase(%d)", uint8(k))
}

// Phase is one transform applied to a cohort of functions over a slot
// window. Phases compose: a ScenarioConfig applies its phases in order,
// each drawing cohort membership and parameters from the same per-function
// scenario RNG.
type Phase struct {
	Kind  PhaseKind
	Start int // first affected slot
	End   int // one past the last affected slot; 0 means the trace end

	// Fraction is the cohort share: each function joins the phase's cohort
	// with this probability (drawn from its scenario RNG).
	Fraction float64

	// Amplitude is kind-specific magnitude: drift slots per day, flash-crowd
	// per-slot invocation count, wave downtime slots. Unused by shift/churn.
	Amplitude float64

	// Period is the wave spacing in slots (PhaseWave only).
	Period int
}

// ScenarioConfig composes phase transforms into a workload scenario. The
// zero value is the stationary workload (no phases, no transform). It is
// embedded by value in GeneratorConfig, so it participates in every config
// hash and shard fingerprint derived from it — two runs differing only in
// scenario never share one.
type ScenarioConfig struct {
	// Name labels the scenario in reports; it does not affect the transform.
	Name string

	// Seed is the scenario RNG domain, mixed with each function's global
	// FuncID. Independent of the generator seed: the same base workload can
	// be re-run under differently drawn cohorts.
	Seed int64

	Phases []Phase
}

// Enabled reports whether the scenario transforms anything.
func (sc ScenarioConfig) Enabled() bool { return len(sc.Phases) > 0 }

// Normalize returns the canonical form of the config: a scenario with no
// phases is the zero value. Name and Seed cannot affect a phase-less
// transform, but they WOULD affect every config hash and shard fingerprint
// derived from GeneratorConfig (the experiments' shared comparison is keyed
// by one) — so "steady" built from the library must collapse to the same
// bytes as an untouched config, or stationary runs would hash apart.
// Callers stamping a named scenario into a GeneratorConfig go through this.
func (sc ScenarioConfig) Normalize() ScenarioConfig {
	if len(sc.Phases) == 0 {
		return ScenarioConfig{}
	}
	return sc
}

// validate rejects phases that cannot be applied to a slots-long trace.
func (sc ScenarioConfig) validate(slots int) error {
	for i, ph := range sc.Phases {
		if ph.Kind >= numPhaseKinds {
			return fmt.Errorf("trace: scenario phase %d has unknown kind %d", i, ph.Kind)
		}
		if ph.Start < 0 || ph.Start >= slots {
			return fmt.Errorf("trace: scenario phase %d (%s) starts at slot %d, outside [0, %d)", i, ph.Kind, ph.Start, slots)
		}
		if ph.End != 0 && (ph.End <= ph.Start || ph.End > slots) {
			return fmt.Errorf("trace: scenario phase %d (%s) window [%d, %d) invalid for a %d-slot trace", i, ph.Kind, ph.Start, ph.End, slots)
		}
		if ph.Fraction < 0 || ph.Fraction > 1 {
			return fmt.Errorf("trace: scenario phase %d (%s) cohort fraction %v outside [0, 1]", i, ph.Kind, ph.Fraction)
		}
		if ph.Kind == PhaseWave && ph.Period <= 0 {
			return fmt.Errorf("trace: scenario phase %d (wave) needs a positive period, got %d", i, ph.Period)
		}
	}
	return nil
}

// scenarioSeed mixes the scenario seed with a global FuncID into the
// per-function transform RNG seed (splitmix64 finalizer, so consecutive
// FuncIDs get uncorrelated streams).
func scenarioSeed(seed int64, fid FuncID) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(int64(fid)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & 0x7fffffffffffffff)
}

// transform applies the scenario to one function's base series, in place:
// the phases filter events and append into its spare capacity. fid is the
// GLOBAL FuncID (the per-function RNG must not depend on shard-local
// numbering); g is reseeded from it, so one RNG serves every function. The
// result is normalized (sorted, positive, unique slots).
func (sc ScenarioConfig) transform(g *stats.RNG, fid FuncID, events []Event, slots int) []Event {
	if len(sc.Phases) == 0 {
		return events
	}
	g.Reseed(scenarioSeed(sc.Seed, fid))
	for _, ph := range sc.Phases {
		events = ph.apply(g, events, slots)
	}
	return normalize(events)
}

// apply runs one phase over one function's series. Cohort membership is
// drawn first, unconditionally, so a phase list's draw order is fixed
// regardless of which cohorts the function lands in.
func (ph Phase) apply(g *stats.RNG, events []Event, slots int) []Event {
	member := g.Bool(ph.Fraction)
	start, end := ph.Start, ph.End
	if end <= 0 || end > slots {
		end = slots
	}
	if !member || start >= end {
		return events
	}

	switch ph.Kind {
	case PhaseDrift:
		out := events[:0]
		for _, e := range events {
			s := int(e.Slot)
			if s >= start && s < end {
				s += int(ph.Amplitude * float64(s-start) / float64(slotsPerDay))
				if s < 0 || s >= slots {
					continue
				}
			}
			out = append(out, Event{Slot: int32(s), Count: e.Count})
		}
		return out

	case PhaseFlashCrowd:
		count := int32(ph.Amplitude)
		if count < 1 {
			count = 1
		}
		for s := start; s < end; s++ {
			events = append(events, Event{Slot: int32(s), Count: count})
		}
		return events

	case PhaseShift:
		return resynthesizeFrom(g, events, start, slots)

	case PhaseChurn:
		cut := start + g.Intn(end-start)
		born := g.Bool(0.5)
		out := events[:0]
		for _, e := range events {
			if born == (int(e.Slot) >= cut) {
				out = append(out, e)
			}
		}
		return out

	case PhaseWave:
		waves := (end - start) / ph.Period
		if waves < 1 {
			waves = 1
		}
		at := start + g.Intn(waves)*ph.Period
		gap := int(ph.Amplitude)
		if gap < 0 {
			gap = 0
		}
		kept := events[:0]
		for _, e := range events {
			if int(e.Slot) < at {
				kept = append(kept, e)
			}
		}
		if resume := at + gap; resume < slots {
			return appendSynthesized(g, kept, resume, slots)
		}
		return kept
	}
	return events
}

// resynthesizeFrom drops the series from slot cut on and replaces it with a
// freshly drawn archetype's series over the remaining window.
func resynthesizeFrom(g *stats.RNG, events []Event, cut, slots int) []Event {
	kept := events[:0]
	for _, e := range events {
		if int(e.Slot) < cut {
			kept = append(kept, e)
		}
	}
	return appendSynthesized(g, kept, cut, slots)
}

// appendSynthesized draws a new archetype and appends its series, shifted to
// begin at slot from.
func appendSynthesized(g *stats.RNG, events []Event, from, slots int) []Event {
	arch := Archetype(g.WeightedChoice(shiftArchMix))
	n := len(events)
	events = synthesize(events, arch, g, slots-from)
	for i := n; i < len(events); i++ {
		events[i].Slot += int32(from)
	}
	return events
}

// ScenarioNames lists the library scenarios in display order.
func ScenarioNames() []string {
	return []string{"steady", "drift", "flashcrowd", "churn", "deploy-wave"}
}

// NamedScenario builds a library scenario positioned for a trace of slots
// total slots whose simulation window starts at simStart: the disruptive
// phases land inside the simulation window, so the categorization trained
// on the (mostly) clean history meets conditions it has never seen. Set
// Seed on the returned config to vary the drawn cohorts.
func NamedScenario(name string, simStart, slots int) (ScenarioConfig, error) {
	if simStart < 0 || simStart >= slots {
		return ScenarioConfig{}, fmt.Errorf("trace: scenario %q: simulation start %d outside [0, %d)", name, simStart, slots)
	}
	simLen := slots - simStart
	sc := ScenarioConfig{Name: name}
	switch name {
	case "steady":
		// The stationary baseline: no phases.
	case "drift":
		// Diurnal drift across the whole trace — trained phases slide ~15
		// slots per day — plus an abrupt phase shift at the train/sim
		// boundary for a small cohort.
		sc.Phases = []Phase{
			{Kind: PhaseDrift, Start: 0, Fraction: 0.5, Amplitude: 15},
			{Kind: PhaseShift, Start: simStart, Fraction: 0.15},
		}
	case "flashcrowd":
		// Two bursts inside the simulation window; distinct cohorts spike
		// to continuous invocation for ~45 minutes each.
		b1 := simStart + simLen/4
		b2 := simStart + (2*simLen)/3
		sc.Phases = []Phase{
			{Kind: PhaseFlashCrowd, Start: b1, End: min(b1+45, slots), Fraction: 0.2, Amplitude: 3},
			{Kind: PhaseFlashCrowd, Start: b2, End: min(b2+45, slots), Fraction: 0.2, Amplitude: 3},
		}
	case "churn":
		// A third of the population churns mid-simulation: births appear
		// with no training history at all, retirements leave trained
		// profiles pointing at functions that never fire again.
		sc.Phases = []Phase{
			{Kind: PhaseChurn, Start: simStart, Fraction: 0.3},
		}
	case "deploy-wave":
		// Four redeployment waves across the simulation window, ~90 minutes
		// of downtime each, after which the "new version" traffic follows a
		// freshly drawn pattern.
		period := simLen / 4
		if period < 1 {
			period = 1
		}
		sc.Phases = []Phase{
			{Kind: PhaseWave, Start: simStart, Fraction: 0.4, Amplitude: 90, Period: period},
		}
	default:
		return ScenarioConfig{}, fmt.Errorf("trace: unknown scenario %q (have %s)", name, strings.Join(ScenarioNames(), ", "))
	}
	return sc, nil
}
