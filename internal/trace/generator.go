package trace

import (
	"fmt"
	"runtime"
	"strconv"

	"repro/internal/stats"
)

// GeneratorConfig parameterizes the synthetic Azure-like workload. The
// defaults reproduce the published statistics of the Azure Functions 2019
// trace that the paper's analysis reports; see DESIGN.md for the mapping.
type GeneratorConfig struct {
	Seed      int64
	Functions int // total function count
	Days      int // trace length in days (1440 slots each)

	// TriggerMix gives the probability of each trigger type, indexed by
	// Trigger. Zero value uses the paper's Figure 5 proportions.
	TriggerMix []float64

	// ShiftFraction is the share of eligible functions that experience a
	// concept shift (rate or period change) partway through the trace,
	// reproducing Figure 4's behaviour.
	ShiftFraction float64

	// ChainFraction is the share of multi-function applications whose
	// functions form an invocation chain (driver -> lagged followers),
	// giving rise to the correlated behaviour of Section III-B2.
	ChainFraction float64

	// MeanAppSize controls how many functions an application has
	// (geometric-ish, >= 1). The Azure trace averages ~3.3 functions/app.
	MeanAppSize float64

	// MeanAppsPerUser controls applications per user (~1.65 in the trace).
	MeanAppsPerUser float64

	// Scenario composes non-stationary phase transforms (drift, flash
	// crowds, churn, ...) over the generated series. The zero value leaves
	// the workload stationary. Transforms are pure per-function (seeded by
	// Scenario.Seed and the global FuncID), so scenario workloads stream
	// shard by shard with the same O(n/P) residency and bit-identical
	// results as stationary ones; see scenario.go for the contract.
	Scenario ScenarioConfig
}

// DefaultGeneratorConfig returns the calibrated defaults for n functions
// over days days.
func DefaultGeneratorConfig(n, days int, seed int64) GeneratorConfig {
	return GeneratorConfig{
		Seed:            seed,
		Functions:       n,
		Days:            days,
		ShiftFraction:   0.10,
		ChainFraction:   0.40,
		MeanAppSize:     3.3,
		MeanAppsPerUser: 1.65,
	}
}

// figure5Mix is the trigger distribution the paper reports (Figure 5).
var figure5Mix = []float64{
	TriggerHTTP:          0.4119,
	TriggerTimer:         0.2664,
	TriggerQueue:         0.1440,
	TriggerOrchestration: 0.0776,
	TriggerEvent:         0.0252,
	TriggerStorage:       0.0219,
	TriggerOthers:        0.0272,
	TriggerCombination:   0.0260,
}

// archetypeMixes holds the archetype sampling weights per trigger,
// calibrated to the paper's analysis: 68.12% of timer functions periodic or
// quasi-periodic, 45.02% of HTTP functions Poisson, queue traffic dense,
// storage/event bursty, and a silent sliver everywhere (743 of 83,137
// functions never appear in training). Others and combination share one mix.
var archetypeMixes = [numTriggers][numArchetypes]float64{
	TriggerTimer: {
		ArchPeriodic:      0.52,
		ArchQuasiPeriodic: 0.17,
		ArchAlwaysOn:      0.05,
		ArchPoisson:       0.06,
		ArchRare:          0.14,
		ArchPulsed:        0.05,
		ArchSilent:        0.01,
	},
	// 45.02% of sufficiently sampled HTTP functions are Poisson and 36.20%
	// lack samples (the sparse, temporally local population).
	TriggerHTTP: {
		ArchPoisson:  0.24,
		ArchDense:    0.12,
		ArchBursty:   0.12,
		ArchPulsed:   0.12,
		ArchRare:     0.37,
		ArchAlwaysOn: 0.02,
		ArchSilent:   0.01,
	},
	TriggerQueue: {
		ArchDense:   0.38,
		ArchPoisson: 0.20,
		ArchBursty:  0.14,
		ArchPulsed:  0.08,
		ArchRare:    0.19,
		ArchSilent:  0.01,
	},
	// Orchestration functions are mostly chained; the chain machinery
	// overrides series for followers, so the base mix covers drivers.
	TriggerOrchestration: {
		ArchDense:   0.20,
		ArchPoisson: 0.25,
		ArchBursty:  0.20,
		ArchPulsed:  0.15,
		ArchRare:    0.19,
		ArchSilent:  0.01,
	},
	TriggerEvent: {
		ArchBursty:  0.33,
		ArchPoisson: 0.11,
		ArchPulsed:  0.20,
		ArchRare:    0.35,
		ArchSilent:  0.01,
	},
	TriggerStorage: {
		ArchBursty: 0.40,
		ArchPulsed: 0.20,
		ArchRare:   0.38,
		ArchSilent: 0.02,
	},
	TriggerOthers:      otherArchMix,
	TriggerCombination: otherArchMix,
}

var otherArchMix = [numArchetypes]float64{
	ArchPoisson:  0.14,
	ArchPeriodic: 0.10,
	ArchDense:    0.10,
	ArchBursty:   0.15,
	ArchPulsed:   0.15,
	ArchRare:     0.34,
	ArchSilent:   0.02,
}

// archetypeMixFor returns trig's archetype sampling weights. The slice is
// shared; callers must not mutate it.
func archetypeMixFor(trig Trigger) []float64 { return archetypeMixes[trig][:] }

// SparseTriggerMix returns a trigger distribution dominated by the triggers
// whose archetype mixes are mostly rare/bursty traffic, yielding the
// mostly-idle large-n populations the scale tests and benchmarks exercise
// (where O(active) vs O(n) engines separate by orders of magnitude).
func SparseTriggerMix() []float64 {
	return []float64{
		TriggerHTTP:          0.30,
		TriggerTimer:         0.02,
		TriggerQueue:         0.03,
		TriggerOrchestration: 0.03,
		TriggerEvent:         0.27,
		TriggerStorage:       0.30,
		TriggerOthers:        0.03,
		TriggerCombination:   0.02,
	}
}

// Generate synthesizes a workload trace per cfg. The same config always
// produces the same trace, whatever the machine's width: Generate builds the
// layout once and synthesizes its shards concurrently, on
// runtime.GOMAXPROCS(0) workers, scattering each shard's functions back to
// their global IDs. Each function's series depends only on its recorded
// seed and its app's driver, and every app lies whole in one shard, so the
// result is the single shard's trace, BuildGenLayout(cfg).Shard(0, 1, 0),
// byte for byte.
func Generate(cfg GeneratorConfig) (*Trace, error) {
	l, err := BuildGenLayout(cfg)
	if err != nil {
		return nil, err
	}
	return l.generate(runtime.GOMAXPROCS(0))
}

// genShardsPerWorker is how many user-closed shards generate cuts per
// worker: enough that one shard heavy with dense or long-chained apps does
// not leave the other workers idle at the end.
const genShardsPerWorker = 4

// generate synthesizes the whole trace as shards of l over workers
// goroutines and scatters them into one trace by global ID.
func (l *GenLayout) generate(workers int) (*Trace, error) {
	n := l.NumFunctions()
	tr := &Trace{Slots: l.slots, Functions: make([]Function, n), Series: make([]Series, n)}
	p := 1
	if workers > 1 {
		p = genShardsPerWorker * workers
	}
	err := FanOut(workers, p, func(_, i int) error {
		_, sh, err := l.Shard(i, p, 0)
		if err != nil {
			return err
		}
		// Shards own disjoint global IDs, so the scatter needs no lock.
		for li, g := range sh.Global {
			f := sh.Functions[li]
			f.ID = g
			tr.Functions[g] = f
			tr.Series[g] = sh.Series[li]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// GenLayout is the structural skeleton of a generated trace: the user/app
// layout, each function's trigger, and the seed of the child RNG its series
// draws from. The generator's two RNG phases split here — the structural
// draws all come from the main seed-derived stream and are captured by one
// O(n) pass, while every series draw comes from a per-function child RNG
// whose seed the pass records (stats.RNG.SplitSeed) — so shard synthesis
// needs no structural replay at all: unselected apps are skipped outright,
// and producing all P shards of one layout costs one structural pass total
// instead of P (the regime that made single-core streamed runs ~1.9x a
// materialized one). A layout is immutable after BuildGenLayout and safe
// for concurrent Shard calls; it costs ~12 bytes per function.
type GenLayout struct {
	cfg   GeneratorConfig
	slots int

	apps  []layoutApp
	trigs []Trigger // per global FuncID
	seeds []int64   // per global FuncID: series child-RNG seed
}

// layoutApp is one application's structural record: identity (rendered into
// names on demand — user%05d / app%06d), its span of global FuncIDs, and
// whether its functions form an invocation chain.
type layoutApp struct {
	user    int32
	app     int32
	first   int32 // global FuncID of function 0
	size    int16
	chained bool
}

// BuildGenLayout runs the generator's structural pass once: every draw the
// full generation takes from the main RNG stream — user/app cardinalities,
// chain flags, per-function split seeds and trigger choices, in exactly
// Generate's order — is taken here, and the per-function series seeds are
// recorded instead of being consumed, so synthesis can happen later, per
// shard, without perturbing or replaying the stream.
func BuildGenLayout(cfg GeneratorConfig) (*GenLayout, error) {
	if cfg.Functions <= 0 {
		return nil, fmt.Errorf("trace: config needs a positive function count, got %d", cfg.Functions)
	}
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("trace: config needs a positive day count, got %d", cfg.Days)
	}
	mix := cfg.TriggerMix
	if len(mix) == 0 {
		mix = figure5Mix
	}
	if len(mix) != int(numTriggers) {
		return nil, fmt.Errorf("trace: trigger mix needs %d entries, got %d", numTriggers, len(mix))
	}
	if cfg.MeanAppSize < 1 {
		cfg.MeanAppSize = 1
	}
	if cfg.MeanAppsPerUser < 1 {
		cfg.MeanAppsPerUser = 1
	}
	if err := cfg.Scenario.validate(cfg.Days * 1440); err != nil {
		return nil, err
	}

	g := stats.NewRNG(cfg.Seed)
	l := &GenLayout{
		cfg:   cfg,
		slots: cfg.Days * 1440,
		trigs: make([]Trigger, cfg.Functions),
		seeds: make([]int64, cfg.Functions),
	}

	// Every generated user is one correlation component (apps are never
	// shared across users), and users appear in first-function order, so the
	// canonical partition assigns user u to shard u mod p — which is what
	// shard-streamed generation relies on to select users up front.
	userID := int32(0)
	appID := int32(0)
	nextGlobal := 0
	remaining := cfg.Functions
	for remaining > 0 {
		nApps := sampleSize(g, cfg.MeanAppsPerUser)
		for a := 0; a < nApps && remaining > 0; a++ {
			size := sampleSize(g, cfg.MeanAppSize)
			if size > remaining {
				size = remaining
			}
			remaining -= size
			// generateApp's draw order, structural part only: the chain flag
			// (drawn only for multi-function apps — the && short-circuit is
			// part of the stream contract), then per function the series
			// split seed followed by the trigger choice.
			chained := size >= 2 && g.Bool(cfg.ChainFraction)
			for k := 0; k < size; k++ {
				l.seeds[nextGlobal+k] = g.SplitSeed()
				l.trigs[nextGlobal+k] = Trigger(g.WeightedChoice(mix))
			}
			l.apps = append(l.apps, layoutApp{
				user: userID, app: appID,
				first: int32(nextGlobal), size: int16(size), chained: chained,
			})
			appID++
			nextGlobal += size
		}
		userID++
	}
	return l, nil
}

// NumFunctions returns the laid-out population size.
func (l *GenLayout) NumFunctions() int { return len(l.trigs) }

// Shard synthesizes shard i of p from the layout: series for exactly the
// functions of users u with u mod p == i, in global order, bit-identical to
// the same shard of Generate. Only the selected shard's apps do any RNG
// work — each function's child RNG is reseeded from its recorded seed.
//
// at == 0 returns (nil, full), the whole shard. A split point at in
// (0, slots) returns the two halves Trace.Split(at) would cut the full
// shard into: train over [0, at), and sim over [at, slots) re-based to 0.
// Both halves share one Functions slice and one Global mapping, as Split's
// do. Either way each function is synthesized into the call's scratch
// (synthScratch) and its series copied out once, at exact size: at a split,
// each half into its own allocation, so a streamed run's training events
// die with its training trace while the sim half lives on.
func (l *GenLayout) Shard(i, p, at int) (train, sim *ShardView, err error) {
	if p <= 0 || i < 0 || i >= p {
		return nil, nil, fmt.Errorf("trace: shard %d of %d out of range", i, p)
	}
	if at < 0 || at >= l.slots {
		return nil, nil, fmt.Errorf("trace: split point %d outside [0, %d)", at, l.slots)
	}
	n := 0
	for _, a := range l.apps {
		if int(a.user)%p == i {
			n += int(a.size)
		}
	}
	fns := make([]Function, 0, n)
	global := make([]FuncID, 0, n)
	simSeries := make([]Series, 0, n)
	var trainSeries []Series
	if at > 0 {
		trainSeries = make([]Series, 0, n)
	}
	// Both buffers start with room for one event per slot, which every
	// archetype but a rare stray-heavy or flash-crowded one stays within, so
	// a call grows each at most a few times.
	sc := synthScratch{
		series: stats.NewRNG(0), scenario: stats.NewRNG(0),
		driver: make([]Event, 0, l.slots), events: make([]Event, 0, l.slots),
	}
	for _, a := range l.apps {
		if int(a.user)%p != i {
			continue
		}
		user, app, names := sc.appNames(a)
		// driver is the chain driver's buffer after its in-place normalize,
		// at its PRE-normalize length: followers read it whole, including
		// the stale tail a coalesced duplicate slot leaves behind, and every
		// generated trace depends on that (DESIGN.md "Generator layout
		// split"). It stays intact until the next app: only the driver
		// writes sc.driver.
		var driver []Event
		// driverActive records whether the driver's BASE series had events:
		// followers chain off the driver's transformed series whenever the
		// base driver was active, so a scenario that empties the driver
		// (churn retiring it) silences its whole chain rather than flipping
		// followers into fresh independent synthesis. For stationary configs
		// the transform is the identity and this is exactly "the driver has
		// events".
		driverActive := false
		for k := 0; k < int(a.size); k++ {
			fid := int(a.first) + k
			trig := l.trigs[fid]
			g := sc.series
			g.Reseed(l.seeds[fid])
			buf := sc.events[:0]
			if k == 0 {
				buf = sc.driver[:0]
			}
			if a.chained && k > 0 && driverActive {
				// Followers fire a small lag after the driver, with dropout:
				// function chaining / fan-out behaviour (Section III-B2). The
				// follower keeps its sampled trigger so the population
				// matches Figure 5's proportions. The driver series is
				// scenario-transformed, so churn and flash crowds propagate
				// through chains; followers are not independently
				// transformed (see scenario.go).
				buf = chainFollower(buf, g, driver, l.slots)
			} else {
				arch := Archetype(g.WeightedChoice(archetypeMixFor(trig)))
				buf = synthesize(buf, arch, g, l.slots)
				if l.cfg.ShiftFraction > 0 && g.Bool(l.cfg.ShiftFraction) {
					buf = applyShift(g, buf, l.slots)
				}
				if k == 0 {
					driverActive = len(buf) > 0
				}
				buf = l.cfg.Scenario.transform(sc.scenario, FuncID(fid), buf, l.slots)
			}
			s := normalize(buf)
			if k == 0 {
				driver = buf
				sc.driver = roomier(sc.driver, buf)
			} else {
				sc.events = roomier(sc.events, buf)
			}

			fns = append(fns, Function{ID: FuncID(len(fns)), Name: names[k], App: app, User: user, Trigger: trig})
			global = append(global, FuncID(fid))
			if at == 0 {
				simSeries = append(simSeries, exactCopy(s))
			} else {
				trainSeries = append(trainSeries, s.Window(0, int32(at)))
				simSeries = append(simSeries, s.Window(int32(at), int32(l.slots)))
			}
		}
	}
	sim = &ShardView{Trace: &Trace{Slots: l.slots - at, Functions: fns, Series: simSeries}, Index: i, Global: global}
	if at > 0 {
		train = &ShardView{Trace: &Trace{Slots: at, Functions: fns, Series: trainSeries}, Index: i, Global: global}
	}
	return train, sim, nil
}

// synthScratch is what one Shard call reuses across the functions it
// synthesizes, none of which escapes: the series and scenario RNGs, reseeded
// per function; the chain driver's event buffer and one for every other
// function; and the current app's name bytes.
type synthScratch struct {
	series, scenario *stats.RNG
	driver, events   []Event

	nameBuf  []byte
	nameEnds []int
	names    []string
}

// appNames renders an app's names — user%05d, app%06d and one %s-f%02d per
// function — into one string and slices them out of it: one allocation per
// app. The names slice is scratch, valid until the next call.
func (sc *synthScratch) appNames(a layoutApp) (user, app string, names []string) {
	b := appendPadded(append(sc.nameBuf[:0], "user"...), int(a.user), 5)
	userEnd := len(b)
	b = appendPadded(append(b, "app"...), int(a.app), 6)
	appEnd := len(b)
	ends := sc.nameEnds[:0]
	for k := 0; k < int(a.size); k++ {
		b = append(b, b[userEnd:appEnd]...)
		b = appendPadded(append(b, "-f"...), k, 2)
		ends = append(ends, len(b))
	}
	all := string(b)
	names = sc.names[:0]
	for k, end := range ends {
		start := appEnd
		if k > 0 {
			start = ends[k-1]
		}
		names = append(names, all[start:end])
	}
	sc.nameBuf, sc.nameEnds, sc.names = b, ends, names
	return all[:userEnd], all[userEnd:appEnd], names
}

// appendPadded appends v in decimal, zero-padded to width digits: the bytes
// fmt's %0<width>d writes for a non-negative v.
func appendPadded(b []byte, v, width int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(v), 10)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// roomier returns whichever buffer has the larger capacity, emptied: the
// scratch keeps a buffer that grew, and keeps its old one when a transform
// handed back nil.
func roomier(kept, used []Event) []Event {
	if cap(used) > cap(kept) {
		return used[:0]
	}
	return kept[:0]
}

// exactCopy copies s into a slice of exactly its length; empty is nil.
func exactCopy(s Series) Series {
	if len(s) == 0 {
		return nil
	}
	out := make(Series, len(s))
	copy(out, s)
	return out
}

// sampleSize draws an application/user cardinality >= 1 with the given mean,
// using a geometric distribution (memoryless app growth is a decent fit for
// the trace's size histogram).
func sampleSize(g *stats.RNG, mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	n := 1
	for !g.Bool(p) && n < 64 {
		n++
	}
	return n
}

// chainFollower derives a follower series from its driver, appending it to
// dst: each driver firing triggers the follower lag slots later with
// probability keepP.
func chainFollower(dst []Event, g *stats.RNG, driver []Event, slots int) []Event {
	lag := 1 + g.Intn(3)
	keepP := 0.7 + g.Float64()*0.3
	for _, e := range driver {
		if !g.Bool(keepP) {
			continue
		}
		slot := int(e.Slot) + lag
		if slot >= slots {
			continue
		}
		count := e.Count
		if count > 1 && g.Bool(0.3) {
			count = 1 + int32(g.Intn(int(count)))
		}
		dst = append(dst, Event{Slot: int32(slot), Count: count})
	}
	return dst
}

// shiftArchMix is the archetype distribution post-change-point behaviour is
// drawn from, shared by the generator's concept shifts (applyShift) and the
// scenario transforms that re-synthesize series (PhaseShift, PhaseWave).
var shiftArchMix = []float64{
	ArchAlwaysOn:      0.05,
	ArchPeriodic:      0.2,
	ArchQuasiPeriodic: 0.1,
	ArchPoisson:       0.25,
	ArchDense:         0.15,
	ArchBursty:        0.1,
	ArchPulsed:        0.05,
	ArchRare:          0.05,
	ArchSilent:        0.05,
}

// applyShift injects a concept shift, in place: after a change point the
// series is re-generated with different parameters (new archetype draw),
// reproducing the mid-trace behaviour changes of Figure 4.
func applyShift(g *stats.RNG, events []Event, slots int) []Event {
	if len(events) < 4 {
		return events
	}
	// Change point in the middle 60% of the trace.
	cut := slots/5 + g.Intn(slots*3/5)
	return resynthesizeFrom(g, events, cut, slots)
}
