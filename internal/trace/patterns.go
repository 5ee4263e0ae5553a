package trace

import "repro/internal/stats"

// This file synthesizes single-function invocation series for each behaviour
// archetype observed in the Azure trace analysis (Section III of the paper).
// Each synthesizer takes its own RNG so functions are generated
// independently and reproducibly, and appends its events to a caller-supplied
// dst (nil allocates), so a producer synthesizes every function of a shard
// into one reused buffer.

// Archetype enumerates the invocation behaviours the generator can emit.
// They map onto (but are deliberately not identical to) SPES's categories:
// the categorizer has to *discover* the pattern from the noisy series.
type Archetype uint8

// Archetypes, roughly from most to least active.
const (
	ArchAlwaysOn Archetype = iota
	ArchPeriodic
	ArchQuasiPeriodic
	ArchPoisson
	ArchDense
	ArchBursty
	ArchPulsed
	ArchRare
	ArchSilent
	numArchetypes
)

var archetypeNames = [...]string{
	ArchAlwaysOn:      "always-on",
	ArchPeriodic:      "periodic",
	ArchQuasiPeriodic: "quasi-periodic",
	ArchPoisson:       "poisson",
	ArchDense:         "dense",
	ArchBursty:        "bursty",
	ArchPulsed:        "pulsed",
	ArchRare:          "rare",
	ArchSilent:        "silent",
}

// String names the archetype.
func (a Archetype) String() string {
	if int(a) < len(archetypeNames) {
		return archetypeNames[a]
	}
	return "archetype(?)"
}

// timerPeriods are the scheduling intervals (minutes) real timer triggers
// commonly use. Short cron-style intervals dominate, but a substantial
// share of timers run hourly-to-daily jobs — the population whose periods
// exceed histogram-based keep-alive ranges (4 hours in Hybrid/Defuse) and
// that only genuine period prediction serves warm.
var timerPeriods = []int{1, 5, 10, 15, 30, 60, 120, 240, 720, 1440}
var timerPeriodWeights = []float64{5, 10, 7, 8, 10, 14, 8, 8, 15, 19}

// genAlwaysOn emits one-or-more invocations at (almost) every slot: the
// "always warm" population such as CI/CD pollers and hyper-frequent calls.
func genAlwaysOn(events []Event, g *stats.RNG, slots int) []Event {
	rate := 1 + g.Pareto(0.5, 1.2) // mean invocations per minute
	skipP := g.Float64() * 0.0008  // stay under the 1/1000 idle bound
	for t := 0; t < slots; t++ {
		if g.Bool(skipP) {
			continue
		}
		n := g.Poisson(rate)
		if n < 1 {
			n = 1
		}
		events = append(events, Event{Slot: int32(t), Count: int32(n)})
	}
	return events
}

// genPeriodic emits timer-style invocations every `period` minutes with
// occasional +/-1 slot jitter, missed firings, and stray extra invocations —
// the disturbances Section IV-A2's slack rules exist to absorb.
func genPeriodic(events []Event, g *stats.RNG, slots int) []Event {
	period := timerPeriods[g.WeightedChoice(timerPeriodWeights)]
	return genPeriodicWithPeriod(events, g, slots, period)
}

func genPeriodicWithPeriod(events []Event, g *stats.RNG, slots, period int) []Event {
	phase := g.Intn(period)
	jitterP := g.Float64() * 0.05 // up to 5% of firings shifted by one slot
	missP := g.Float64() * 0.02   // up to 2% missed
	strayP := g.Float64() * 0.01  // rare off-schedule invocations
	for t := phase; t < slots; t += period {
		if g.Bool(missP) {
			continue
		}
		slot := t
		if g.Bool(jitterP) {
			if g.Bool(0.5) {
				slot++
			} else {
				slot--
			}
			if slot < 0 || slot >= slots {
				continue
			}
		}
		events = append(events, Event{Slot: int32(slot), Count: 1})
	}
	nStray := int(strayP * float64(slots) / float64(period))
	for i := 0; i < nStray; i++ {
		events = append(events, Event{Slot: int32(g.Intn(slots)), Count: 1})
	}
	return events
}

// genQuasiPeriodic emits invocations whose gap wobbles within a small window
// around the base period — the IoT-hub style "appro-regular" behaviour where
// a 3-minute schedule actually lands every 3-5 minutes.
func genQuasiPeriodic(events []Event, g *stats.RNG, slots int) []Event {
	base := timerPeriods[g.WeightedChoice(timerPeriodWeights)]
	spread := 1 + g.Intn(3) // gap varies in [base, base+spread]
	t := g.Intn(base + 1)
	for t < slots {
		events = append(events, Event{Slot: int32(t), Count: 1})
		t += base + g.Intn(spread+1)
	}
	return events
}

// genPoisson emits a homogeneous Poisson arrival stream, the dominant
// pattern among sufficiently sampled HTTP-triggered functions (45.02% in
// the trace). Rates are bimodal, matching the trace's imbalance: a busy
// population (sub-minute to few-minute inter-arrivals, which the dense
// definition and short keep-alives absorb) and a sparse population (a few
// arrivals per day). The memoryless mid-band is thin, as it is in the real
// trace where most moderately active functions are timer- or queue-driven
// rather than Poisson.
func genPoisson(events []Event, g *stats.RNG, slots int) []Event {
	var rate float64
	if g.Bool(0.6) {
		rate = 0.3 + g.Pareto(0.2, 1.1) // busy: mean IAT of a few minutes
		if rate > 50 {
			rate = 50
		}
	} else {
		rate = g.Pareto(0.0004, 1.2) // sparse: a handful of arrivals per day
		if rate > 0.004 {
			rate = 0.004
		}
	}
	for t := 0; t < slots; t++ {
		if n := g.Poisson(rate); n > 0 {
			events = append(events, Event{Slot: int32(t), Count: int32(n)})
		}
	}
	return events
}

// genDense emits busy stretches separated by short idle gaps bounded by a
// small constant — queue-consumer behaviour that SPES's "dense" definition
// (P90(WT) <= small constant) targets.
func genDense(events []Event, g *stats.RNG, slots int) []Event {
	maxGap := 2 + g.Intn(4)    // idle gaps of 1..maxGap slots
	busyMean := 5 + g.Intn(26) // busy run length
	rate := 0.5 + g.Float64()*4
	t := g.Intn(maxGap + 1)
	for t < slots {
		runLen := 1 + g.Poisson(float64(busyMean))
		for i := 0; i < runLen && t < slots; i++ {
			n := g.Poisson(rate)
			if n < 1 {
				n = 1
			}
			events = append(events, Event{Slot: int32(t), Count: int32(n)})
			t++
		}
		t += 1 + g.Intn(maxGap)
	}
	return events
}

// genBursty emits long silences punctuated by sustained invocation waves —
// the temporal-locality behaviour of Figure 6 that the "successive" type
// captures (every wave lasts >= a few slots and carries many invocations).
func genBursty(events []Event, g *stats.RNG, slots int) []Event {
	waveLen := 4 + g.Intn(27)     // slots per wave, comfortably >= gamma1
	gapMean := 300 + g.Intn(2000) // silence between waves
	rate := 1.5 + g.Float64()*6   // invocations per slot inside a wave
	t := g.Intn(gapMean)
	for t < slots {
		thisWave := waveLen + g.Intn(waveLen)
		for i := 0; i < thisWave && t < slots; i++ {
			n := g.Poisson(rate)
			if n < 1 {
				n = 1
			}
			events = append(events, Event{Slot: int32(t), Count: int32(n)})
			t++
		}
		t += 1 + int(g.Exponential(1/float64(gapMean)))
	}
	return events
}

// genPulsed emits weak temporal locality: short flurries of mostly
// consecutive invocations whose waves are too small or inconsistent for the
// "successive" definition, landing in SPES's indeterminate "pulsed" bucket.
// Keeping a pulsed function warm across a flurry pays for one cold start
// per wave, which is the behaviour the pulsed strategy exploits.
func genPulsed(events []Event, g *stats.RNG, slots int) []Event {
	gapMean := 200 + g.Intn(1500)
	t := g.Intn(gapMean)
	for t < slots {
		flurry := 2 + g.Intn(5) // 2-6 slots per flurry
		for i := 0; i < flurry && t < slots; i++ {
			if g.Bool(0.9) {
				events = append(events, Event{Slot: int32(t), Count: int32(1 + g.Poisson(0.6))})
			}
			t++
		}
		t += 1 + int(g.Exponential(1/float64(gapMean)))
	}
	return events
}

// genRare emits a few invocation episodes. Mirroring the temporal-locality
// analysis of Section III-B3 (Figure 6), most rare functions fire in small
// clusters of consecutive-ish minutes rather than isolated singletons; a
// minority repeat a gap (feeding the "possible" type) or scatter uniformly
// (ending up "unknown").
func genRare(events []Event, g *stats.RNG, slots int) []Event {
	switch {
	case g.Bool(0.45):
		// Clustered episodes: 1-3 clusters of 2-6 near-consecutive minutes.
		clusters := 1 + g.Intn(3)
		for c := 0; c < clusters; c++ {
			start := g.Intn(slots)
			size := 2 + g.Intn(5)
			t := start
			for i := 0; i < size && t < slots; i++ {
				events = append(events, Event{Slot: int32(t), Count: int32(1 + g.Poisson(0.4))})
				t += 1 + g.Intn(2) // consecutive or one-slot gaps
			}
		}
		return events
	case g.Bool(0.8):
		// Repeating gap: at least one WT mode appears more than once. Gaps
		// run from a couple of hours to beyond a day, mostly past the reach
		// of bounded-range keep-alive histograms.
		n := 4 + g.Intn(8)
		gap := 300 + g.Intn(1800)
		t := g.Intn(slots / 2)
		for i := 0; i < n && t < slots; i++ {
			events = append(events, Event{Slot: int32(t), Count: 1})
			t += g.Jitter(gap, 1, 1)
		}
		return events
	default:
		// Scattered singletons: genuinely unpredictable.
		n := 1 + g.Intn(6)
		for i := 0; i < n; i++ {
			events = append(events, Event{Slot: int32(g.Intn(slots)), Count: 1})
		}
		return events
	}
}

// synthesize dispatches to the archetype's generator, appending to dst.
func synthesize(dst []Event, a Archetype, g *stats.RNG, slots int) []Event {
	switch a {
	case ArchAlwaysOn:
		return genAlwaysOn(dst, g, slots)
	case ArchPeriodic:
		return genPeriodic(dst, g, slots)
	case ArchQuasiPeriodic:
		return genQuasiPeriodic(dst, g, slots)
	case ArchPoisson:
		return genPoisson(dst, g, slots)
	case ArchDense:
		return genDense(dst, g, slots)
	case ArchBursty:
		return genBursty(dst, g, slots)
	case ArchPulsed:
		return genPulsed(dst, g, slots)
	case ArchRare:
		return genRare(dst, g, slots)
	default: // ArchSilent and unknown archetypes emit nothing
		return dst
	}
}
