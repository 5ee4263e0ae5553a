// Equivalence tests: the event-driven scheduling core and the simulator's
// load-delta accounting must reproduce their references — core.DenseReference,
// a closed-form keep-alive oracle, and the Driver's scan-derived deltas — bit
// for bit. Every sim.Result field —
// cold starts, WMT, EMCR, memory, per-function metrics, type labels — is
// compared across engines and accounting modes on seeded generator
// workloads.
package main

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// scanOnly hides a policy's LoadDeltaTracker (and every other optional
// interface, NextWake included), so the Driver derives its deltas from a
// per-slot Loaded scan and ticks every slot; it is the reference the
// policies' own delta logs and idle-span skipping are verified against.
type scanOnly struct{ sim.Policy }

// scanOnlyTagged additionally forwards TypeTagger for policies (SPES) that
// label functions, so the reference result carries the same Types field.
type scanOnlyTagged struct{ sim.Policy }

func (s scanOnlyTagged) TypeOf(f trace.FuncID) string {
	return s.Policy.(sim.TypeTagger).TypeOf(f)
}

// scanOnlyRetrain additionally forwards Retrain, so a retrain-enabled
// scan-accounted reference retrains exactly like the wrapped policy.
type scanOnlyRetrain struct{ scanOnlyTagged }

func (s scanOnlyRetrain) Retrain(t int, w *trace.Trace) {
	s.Policy.(sim.Retrainer).Retrain(t, w)
}

func eqvSettings(seed int64) experiments.Settings {
	s := experiments.DefaultSettings()
	s.Functions = 300
	s.Days = 6
	s.TrainDays = 4
	s.Seed = seed
	return s
}

// assertSameResult compares two results modulo Overhead (wall-clock noise).
func assertSameResult(t *testing.T, label string, want, got *sim.Result) {
	t.Helper()
	if d := want.Diff(got); d != "" {
		t.Errorf("%s: results differ:\n%s", label, d)
	}
}

// TestSPESEventEngineEquivalence runs the event-driven SPES against the
// dense per-slot reference on three seeded workloads, in every combination
// of scheduling engine × accounting mode, and requires identical results.
func TestSPESEventEngineEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		_, train, simTr, err := experiments.BuildWorkload(eqvSettings(seed))
		if err != nil {
			t.Fatal(err)
		}

		// Reference: dense engine, scan-derived accounting.
		ref, err := sim.Run(scanOnlyTagged{core.NewDenseReference(core.DefaultConfig())}, train, simTr, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ref.TotalColdStarts == 0 || ref.TotalWMT == 0 {
			t.Fatalf("seed %d: degenerate reference workload: %+v", seed, ref)
		}

		// Streamed sources: same workload as the materialized traces above,
		// produced one shard at a time by the generator.
		src1, err := experiments.StreamSource(eqvSettings(seed), 1)
		if err != nil {
			t.Fatal(err)
		}
		src2, err := experiments.StreamSource(eqvSettings(seed), 2)
		if err != nil {
			t.Fatal(err)
		}
		src5, err := experiments.StreamSource(eqvSettings(seed), 5)
		if err != nil {
			t.Fatal(err)
		}

		cases := []struct {
			label  string
			policy sim.Policy
			opts   sim.Options
		}{
			{"event engine + delta accounting", core.New(core.DefaultConfig()), sim.Options{}},
			{"event engine + scan accounting", scanOnlyTagged{core.New(core.DefaultConfig())}, sim.Options{}},
			{"dense engine + delta accounting", core.NewDenseReference(core.DefaultConfig()), sim.Options{}},
			{"sharded x2 event engine", core.New(core.DefaultConfig()), sim.Options{Shards: 2}},
			{"sharded x5 event engine", core.New(core.DefaultConfig()), sim.Options{Shards: 5}},
			{"streamed x1 event engine", core.New(core.DefaultConfig()), sim.Options{Source: src1}},
			{"streamed x2 event engine", core.New(core.DefaultConfig()), sim.Options{Source: src2}},
			{"streamed x5 event engine", core.New(core.DefaultConfig()), sim.Options{Source: src5}},
			{"streamed x5 cached event engine", core.New(core.DefaultConfig()),
				sim.Options{Source: src5, Cache: sim.NewShardCache()}},
		}
		for _, c := range cases {
			got, err := sim.Run(c.policy, train, simTr, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, c.label, ref, got)
		}
	}
}

// TestShardedBaselineEquivalence runs every baseline under Options.Shards
// and requires the merged result to match its unsharded run — including the
// capacity-coupled policies (FaaSCache, LCS), which do not shard and run
// over the whole population whatever Options.Shards says.
func TestShardedBaselineEquivalence(t *testing.T) {
	_, train, simTr, err := experiments.BuildWorkload(eqvSettings(5))
	if err != nil {
		t.Fatal(err)
	}
	mks := []func() sim.Policy{
		func() sim.Policy { return baselines.NewFixedKeepAlive(10) },
		func() sim.Policy { return baselines.NewHybridFunction(baselines.DefaultHybridConfig()) },
		func() sim.Policy { return baselines.NewHybridApplication(baselines.DefaultHybridConfig()) },
		func() sim.Policy { return baselines.NewDefuse(baselines.DefaultDefuseConfig()) },
		func() sim.Policy { return baselines.NewFaaSCache(30) },
		func() sim.Policy { return baselines.NewLCS(30) },
	}
	for _, mk := range mks {
		ref, err := sim.Run(mk(), train, simTr, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 4} {
			got, err := sim.Run(mk(), train, simTr, sim.Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("%s x%d", ref.Policy, shards), ref, got)
		}
	}
}

// TestCapacityShardedEquivalence is the dedicated matrix for the capacity-
// coupled policies: FaaSCache and LCS across scenarios {steady, drift,
// flashcrowd} and three seeds must produce Results bit-identical to their
// unsharded runs — which are themselves pinned to the dense accounting scan
// — under Options.Shards {2, 5, 16} (Shards is ignored, result identical)
// and over generator sources of {2, 5, 16} shards, whose population the run
// reassembles.
func TestCapacityShardedEquivalence(t *testing.T) {
	mks := []func(capacity int) sim.Policy{
		func(capacity int) sim.Policy { return baselines.NewFaaSCache(capacity) },
		func(capacity int) sim.Policy { return baselines.NewLCS(capacity) },
	}
	for _, scenario := range []string{"steady", "drift", "flashcrowd"} {
		for seed := int64(1); seed <= 3; seed++ {
			s := eqvSettings(seed)
			if err := s.ApplyScenario(scenario); err != nil {
				t.Fatal(err)
			}
			_, train, simTr, err := experiments.BuildWorkload(s)
			if err != nil {
				t.Fatal(err)
			}
			// One generator source per shard count, shared by both policies
			// (its structural layout is built once).
			srcs := map[int]*sim.GeneratorSource{}
			for _, shards := range []int{2, 5, 16} {
				if srcs[shards], err = experiments.StreamSource(s, shards); err != nil {
					t.Fatal(err)
				}
			}
			// A third of the population: small enough that evictions are
			// constant, large enough that loaded functions also idle (so the
			// WMT/EMCR paths are non-degenerate, which the guard asserts).
			capacity := train.NumFunctions() / 3
			for _, mk := range mks {
				label := func(engine string) string {
					return fmt.Sprintf("%s %s seed %d: %s", mk(capacity).Name(), scenario, seed, engine)
				}
				dense, err := sim.Run(scanOnly{mk(capacity)}, train, simTr, sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if dense.TotalColdStarts == 0 || dense.TotalWMT == 0 {
					t.Fatalf("%s: degenerate workload: %+v", label("dense"), dense)
				}
				ref, err := sim.Run(mk(capacity), train, simTr, sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, label("unsharded vs dense"), dense, ref)
				for _, shards := range []int{2, 5, 16} {
					got, err := sim.Run(mk(capacity), train, simTr, sim.Options{Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, label(fmt.Sprintf("sharded x%d", shards)), ref, got)

					streamed, err := sim.RunStreamed(mk(capacity), srcs[shards], sim.Options{})
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, label(fmt.Sprintf("streamed x%d", shards)), ref, streamed)
				}
			}
		}
	}
}

// TestCapacityShardingContracts pins the error contracts around capacity-
// coupled policies: a policy implementing neither sharding interface refuses
// with sim.ErrNotShardable (surviving RunAll's per-policy wrapping, whose
// other results stay usable), and a ShardCache attached to a capacity run
// is refused with a structured CapacityCacheError rather than silently
// bypassed.
func TestCapacityShardingContracts(t *testing.T) {
	_, train, simTr, err := experiments.BuildWorkload(eqvSettings(3))
	if err != nil {
		t.Fatal(err)
	}

	// scanOnly hides every optional interface, including ShardedPolicy; the
	// QoS wrapper shares one budget across the whole population, so it
	// implements neither sharding contract whatever it wraps.
	for name, p := range map[string]sim.Policy{
		"scanOnly": scanOnly{baselines.NewFixedKeepAlive(10)},
		"qos":      qos.New(baselines.NewFixedKeepAlive(10), train.NumFunctions(), nil),
	} {
		_, err = sim.Run(p, train, simTr, sim.Options{Shards: 2})
		if !errors.Is(err, sim.ErrNotShardable) {
			t.Errorf("unshardable policy %s: got %v, want errors.Is ErrNotShardable", name, err)
		}
	}

	results, err := sim.RunAll(
		[]sim.Policy{scanOnly{baselines.NewFixedKeepAlive(10)}, baselines.NewFixedKeepAlive(10)},
		train, simTr, sim.Options{Shards: 2})
	if !errors.Is(err, sim.ErrNotShardable) {
		t.Errorf("RunAll: got %v, want errors.Is ErrNotShardable", err)
	}
	if results[0] != nil || results[1] == nil {
		t.Errorf("RunAll partial results: got [%v, %v], want [nil, result]", results[0], results[1])
	}

	_, err = sim.Run(baselines.NewFaaSCache(30), train, simTr,
		sim.Options{Shards: 2, Cache: sim.NewShardCache()})
	if !errors.Is(err, sim.ErrCapacityCoupled) {
		t.Errorf("cached capacity run: got %v, want errors.Is ErrCapacityCoupled", err)
	}
	var cce *sim.CapacityCacheError
	if !errors.As(err, &cce) || cce.Policy != "FaaSCache" {
		t.Errorf("cached capacity run: got %v, want CapacityCacheError for FaaSCache", err)
	}
}

// TestShardedLargeNSparseEquivalence is the scale form of the engine
// equivalence: a 10k-function mostly-idle population (three seeds) must
// produce bit-identical sim.Results from the sharded, unsharded, and dense
// reference engines. This is the regime sharding exists for — the
// population is ~17x bench scale while the invocation volume stays small —
// so the test doubles as a guard that none of the engines' O(active)
// claims regress into O(n) correctness hacks. Skipped under -short (the
// race-detector CI job runs the unit suite with -short and exercises a
// small sharded run via cmd/eqvcheck instead).
func TestShardedLargeNSparseEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n equivalence skipped with -short")
	}
	for seed := int64(1); seed <= 3; seed++ {
		s := experiments.SparseSettings(10_000, seed)
		_, train, simTr, err := experiments.BuildWorkload(s)
		if err != nil {
			t.Fatal(err)
		}

		ref, err := sim.Run(scanOnlyTagged{core.NewDenseReference(core.DefaultConfig())}, train, simTr, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ref.TotalColdStarts == 0 || ref.TotalWMT == 0 {
			t.Fatalf("seed %d: degenerate sparse workload: %+v", seed, ref)
		}

		event, err := sim.Run(core.New(core.DefaultConfig()), train, simTr, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("seed %d: event vs dense", seed), ref, event)

		for _, shards := range []int{4, 16} {
			sharded, err := sim.Run(core.New(core.DefaultConfig()), train, simTr,
				sim.Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("seed %d: sharded x%d vs dense", seed, shards), ref, sharded)

			// Streamed form of the same run: the trace pair is never
			// materialized, shards are generated inside the workers.
			src, err := experiments.StreamSource(s, shards)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := sim.RunStreamed(core.New(core.DefaultConfig()), src, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("seed %d: streamed x%d vs dense", seed, shards), ref, streamed)
		}
	}
}

// TestShardedRunAllSharesBudget smoke-tests the policies x shards worker
// budget: several sharded policies under one RunAll with Workers=2 must
// still produce in-order, bit-correct results.
func TestShardedRunAllSharesBudget(t *testing.T) {
	_, train, simTr, err := experiments.BuildWorkload(eqvSettings(9))
	if err != nil {
		t.Fatal(err)
	}
	mks := []func() sim.Policy{
		func() sim.Policy { return core.New(core.DefaultConfig()) },
		func() sim.Policy { return baselines.NewFixedKeepAlive(10) },
		func() sim.Policy { return baselines.NewDefuse(baselines.DefaultDefuseConfig()) },
	}
	var want []*sim.Result
	var pack []sim.Policy
	for _, mk := range mks {
		r, err := sim.Run(mk(), train, simTr, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
		pack = append(pack, mk())
	}
	got, err := sim.RunAll(pack, train, simTr, sim.Options{Shards: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		assertSameResult(t, want[i].Policy+" sharded RunAll", want[i], got[i])
	}
}

// TestBaselineDeltaAccountingEquivalence verifies that every baseline's
// delta log drives the incremental accounting to the exact result of the
// dense scan.
func TestBaselineDeltaAccountingEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		_, train, simTr, err := experiments.BuildWorkload(eqvSettings(seed))
		if err != nil {
			t.Fatal(err)
		}
		capacity := train.NumFunctions() / 10
		mks := []func() sim.Policy{
			func() sim.Policy { return baselines.NewFixedKeepAlive(10) },
			func() sim.Policy { return baselines.NewHybridFunction(baselines.DefaultHybridConfig()) },
			func() sim.Policy { return baselines.NewHybridApplication(baselines.DefaultHybridConfig()) },
			func() sim.Policy { return baselines.NewDefuse(baselines.DefaultDefuseConfig()) },
			func() sim.Policy { return baselines.NewFaaSCache(capacity) },
			func() sim.Policy { return baselines.NewLCS(capacity) },
		}
		for _, mk := range mks {
			ref, err := sim.Run(scanOnly{mk()}, train, simTr, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(mk(), train, simTr, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, got.Policy, ref, got)
		}
	}
}

// closedFormKeepAlive is the fixed keep-alive policy with no scheduler at
// all: a function is loaded iff 0 <= t - last < keepAlive, t being the slot
// last ticked. Train evaluates the window at slot 0, as FixedKeepAlive does
// (a window closing exactly at the train/sim boundary starts unloaded). It
// logs no deltas and answers LoadedCount by counting.
type closedFormKeepAlive struct {
	keepAlive, t int
	last         []int
}

func (p *closedFormKeepAlive) Name() string { return fmt.Sprintf("Fixed-%dmin", p.keepAlive) }

func (p *closedFormKeepAlive) Train(training *trace.Trace) {
	p.last = make([]int, training.NumFunctions())
	for fid, s := range training.Series {
		p.last[fid] = -p.keepAlive // never invoked: the window is already shut
		if last := s.LastSlot(); last >= 0 {
			p.last[fid] = int(last) - training.Slots
		}
	}
}

func (p *closedFormKeepAlive) Tick(t int, invs []trace.FuncCount) {
	p.t = t
	for _, fc := range invs {
		p.last[fc.Func] = t
	}
}

func (p *closedFormKeepAlive) Loaded(f trace.FuncID) bool { return p.t-p.last[f] < p.keepAlive }

func (p *closedFormKeepAlive) LoadedCount() (n int) {
	for f := range p.last {
		if p.Loaded(trace.FuncID(f)) {
			n++
		}
	}
	return n
}

// TestWheelBaselineEquivalence is the baseline counterpart of
// TestSPESEventEngineEquivalence: every deadline-based baseline runs on the
// shared timing wheel, and this matrix pins its own delta log and the
// simulator's idle-span skipping to the scan-accounted, tick-every-slot run
// of the same policy across seeds, non-stationary scenarios, and the
// unsharded, sharded, and streamed execution engines. That the wheel fires
// what a per-slot map would is sched.Agenda's property, proven beside it
// (internal/sched/agenda_model_test.go); the independent row here is the
// closed-form keep-alive oracle, which shares no code with any of it.
func TestWheelBaselineEquivalence(t *testing.T) {
	mks := []struct {
		name   string
		wheel  func() sim.Policy
		oracle func() sim.Policy // nil when the policy has no closed form
	}{
		{
			"Fixed",
			func() sim.Policy { return baselines.NewFixedKeepAlive(10) },
			func() sim.Policy { return &closedFormKeepAlive{keepAlive: 10} },
		},
		{"HybridFunction", func() sim.Policy { return baselines.NewHybridFunction(baselines.DefaultHybridConfig()) }, nil},
		{"HybridApplication", func() sim.Policy { return baselines.NewHybridApplication(baselines.DefaultHybridConfig()) }, nil},
		{"Defuse", func() sim.Policy { return baselines.NewDefuse(baselines.DefaultDefuseConfig()) }, nil},
	}
	for _, scenario := range []string{"drift", "flashcrowd"} {
		for seed := int64(1); seed <= 2; seed++ {
			s := eqvSettings(seed)
			if err := s.ApplyScenario(scenario); err != nil {
				t.Fatal(err)
			}
			_, train, simTr, err := experiments.BuildWorkload(s)
			if err != nil {
				t.Fatal(err)
			}
			src, err := experiments.StreamSource(s, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, mk := range mks {
				label := func(engine string) string {
					return fmt.Sprintf("%s %s seed %d: %s", mk.name, scenario, seed, engine)
				}
				ref, err := sim.Run(scanOnly{mk.wheel()}, train, simTr, sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if ref.TotalColdStarts == 0 || ref.TotalWMT == 0 {
					t.Fatalf("%s: degenerate workload: %+v", label("reference"), ref)
				}
				type engineCase struct {
					engine string
					policy sim.Policy
					opts   sim.Options
				}
				cases := []engineCase{
					{"wheel + delta accounting", mk.wheel(), sim.Options{}},
					{"wheel sharded x3", mk.wheel(), sim.Options{Shards: 3}},
					{"wheel streamed x2", mk.wheel(), sim.Options{Source: src}},
				}
				if mk.oracle != nil {
					cases = append(cases, engineCase{"closed-form oracle", mk.oracle(), sim.Options{}})
				}
				for _, c := range cases {
					got, err := sim.Run(c.policy, train, simTr, c.opts)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, label(c.engine), ref, got)
				}
			}
		}
	}
}

// adaptiveTTL has the shape of examples/custompolicy's AdaptiveTTL — a
// per-function TTL doubled on a cold start and decayed on a warm hit, expired
// by a linear scan — the kind of policy a user of the public facade writes:
// sim.Policy and nothing else. It logs its flips, but only adaptiveTTLTracked
// hands the log to the simulator.
type adaptiveTTL struct {
	minTTL, maxTTL int
	ttl, expireAt  []int // expireAt is -1 when unloaded
	loaded         int
	flips          []trace.FuncID
}

func (p *adaptiveTTL) Name() string { return "AdaptiveTTL" }

func (p *adaptiveTTL) Train(training *trace.Trace) {
	p.ttl = make([]int, training.NumFunctions())
	p.expireAt = make([]int, training.NumFunctions())
	for i := range p.ttl {
		p.ttl[i], p.expireAt[i] = p.minTTL, -1
	}
}

func (p *adaptiveTTL) Tick(t int, invs []trace.FuncCount) {
	for _, fc := range invs {
		f := fc.Func
		if p.expireAt[f] < 0 {
			p.ttl[f] = min(2*p.ttl[f], p.maxTTL)
			p.loaded++
			p.flips = append(p.flips, f)
		} else {
			p.ttl[f] = max(p.ttl[f]-1, p.minTTL)
		}
		p.expireAt[f] = t + p.ttl[f]
	}
	for f := range p.expireAt {
		if p.expireAt[f] >= 0 && p.expireAt[f] <= t {
			p.expireAt[f] = -1
			p.loaded--
			p.flips = append(p.flips, trace.FuncID(f))
		}
	}
}

func (p *adaptiveTTL) Loaded(f trace.FuncID) bool { return p.expireAt[f] >= 0 }
func (p *adaptiveTTL) LoadedCount() int           { return p.loaded }

type adaptiveTTLTracked struct{ *adaptiveTTL }

func (p adaptiveTTLTracked) TakeLoadDeltas() ([]trace.FuncID, bool) {
	d := p.flips
	p.flips = p.flips[:0]
	return d, true
}

// TestTrackerlessPolicyEquivalence pins the two tracker-less shapes the
// public facade produces to the same accounting a delta-logging policy gets,
// without recorded constants: a user-written policy with and without a
// hand-written delta log, and qos.Scheduler (which forwards no tracker) over
// a policy that has one, under a budget that never binds.
func TestTrackerlessPolicyEquivalence(t *testing.T) {
	_, train, simTr, err := experiments.BuildWorkload(eqvSettings(2))
	if err != nil {
		t.Fatal(err)
	}
	run := func(p sim.Policy) *sim.Result {
		t.Helper()
		r, err := sim.Run(p, train, simTr, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.TotalColdStarts == 0 || r.TotalWMT == 0 {
			t.Fatalf("%s: degenerate workload: %+v", r.Policy, r)
		}
		return r
	}

	assertSameResult(t, "AdaptiveTTL scanned vs own delta log",
		run(adaptiveTTLTracked{&adaptiveTTL{minTTL: 2, maxTTL: 240}}),
		run(&adaptiveTTL{minTTL: 2, maxTTL: 240}))

	bare := run(baselines.NewFixedKeepAlive(10))
	viaQoS := run(qos.New(baselines.NewFixedKeepAlive(10), train.NumFunctions(), nil))
	// The scheduler renames the policy and always answers TypeOf (with ""
	// over an untagged inner policy); every metric must agree.
	viaQoS.Policy, viaQoS.Types = bare.Policy, bare.Types
	assertSameResult(t, "FixedKeepAlive under an unbinding QoS budget", bare, viaQoS)
}

// TestRunAllParallelMatchesSequential pins RunAll's concurrent execution to
// the per-policy sequential results, in input order.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	_, train, simTr, err := experiments.BuildWorkload(eqvSettings(7))
	if err != nil {
		t.Fatal(err)
	}
	mks := []func() sim.Policy{
		func() sim.Policy { return core.New(core.DefaultConfig()) },
		func() sim.Policy { return baselines.NewFixedKeepAlive(10) },
		func() sim.Policy { return baselines.NewDefuse(baselines.DefaultDefuseConfig()) },
		func() sim.Policy { return baselines.NewLCS(train.NumFunctions() / 10) },
	}
	var seq []*sim.Result
	var par []sim.Policy
	for _, mk := range mks {
		r, err := sim.Run(mk(), train, simTr, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, r)
		par = append(par, mk())
	}
	got, err := sim.RunAll(par, train, simTr, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(seq) {
		t.Fatalf("RunAll returned %d results, want %d", len(got), len(seq))
	}
	for i := range seq {
		assertSameResult(t, seq[i].Policy, seq[i], got[i])
	}
}

// TestScenarioRetrainEquivalence runs SPES over non-stationary library
// scenarios, with and without online re-categorization, across every
// engine: the dense per-slot reference (scan accounting), the event-driven
// engine (delta accounting), the sharded engine, and the streamed engine
// (cached and uncached) must all produce bit-identical results — pattern
// drift and function churn must not open any daylight between engines, and
// neither must mid-simulation retraining.
func TestScenarioRetrainEquivalence(t *testing.T) {
	for _, scenario := range []string{"drift", "churn", "flashcrowd", "deploy-wave"} {
		for _, retrainEvery := range []int{0, 1440} {
			for seed := int64(1); seed <= 2; seed++ {
				s := eqvSettings(seed)
				if err := s.ApplyScenario(scenario); err != nil {
					t.Fatal(err)
				}
				_, train, simTr, err := experiments.BuildWorkload(s)
				if err != nil {
					t.Fatal(err)
				}
				src, err := experiments.StreamSource(s, 2)
				if err != nil {
					t.Fatal(err)
				}

				base := sim.Options{RetrainEvery: retrainEvery}
				ref, err := sim.Run(scanOnlyRetrain{scanOnlyTagged{core.NewDenseReference(core.DefaultConfig())}},
					train, simTr, base)
				if err != nil {
					t.Fatal(err)
				}
				if ref.TotalColdStarts == 0 || ref.TotalWMT == 0 {
					t.Fatalf("%s seed %d: degenerate workload: %+v", scenario, seed, ref)
				}

				label := func(engine string) string {
					return fmt.Sprintf("%s retrain=%d seed %d: %s", scenario, retrainEvery, seed, engine)
				}
				cache := sim.NewShardCache()
				cases := []struct {
					engine string
					policy sim.Policy
					opts   sim.Options
				}{
					{"event+delta", core.New(core.DefaultConfig()), base},
					{"dense+delta", core.NewDenseReference(core.DefaultConfig()), base},
					{"sharded x3", core.New(core.DefaultConfig()),
						sim.Options{Shards: 3, RetrainEvery: retrainEvery}},
					{"streamed x2", core.New(core.DefaultConfig()),
						sim.Options{Source: src, RetrainEvery: retrainEvery}},
					{"streamed x2 cached cold", core.New(core.DefaultConfig()),
						sim.Options{Source: src, Cache: cache, RetrainEvery: retrainEvery}},
					{"streamed x2 cached warm", core.New(core.DefaultConfig()),
						sim.Options{Source: src, Cache: cache, RetrainEvery: retrainEvery}},
				}
				for _, c := range cases {
					got, err := sim.Run(c.policy, train, simTr, c.opts)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, label(c.engine), ref, got)
				}
				if st := cache.Stats(); st.Hits != 2 || st.Misses != 2 {
					t.Fatalf("%s: cached passes saw hits=%d misses=%d, want 2/2", label("cache"), st.Hits, st.Misses)
				}
			}
		}
	}
}

// TestRetrainChangesOutcomeUnderChurn is the sanity check that retraining
// is not a no-op: under the churn scenario, periodic re-categorization must
// actually change the simulation outcome (it demotes retired functions and
// picks up born ones).
func TestRetrainChangesOutcomeUnderChurn(t *testing.T) {
	s := eqvSettings(1)
	if err := s.ApplyScenario("churn"); err != nil {
		t.Fatal(err)
	}
	_, train, simTr, err := experiments.BuildWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sim.Run(core.New(core.DefaultConfig()), train, simTr, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	retrained, err := sim.Run(core.New(core.DefaultConfig()), train, simTr,
		sim.Options{RetrainEvery: 720})
	if err != nil {
		t.Fatal(err)
	}
	if plain.TotalColdStarts == retrained.TotalColdStarts && plain.TotalWMT == retrained.TotalWMT {
		t.Fatalf("retraining changed nothing under churn: cold=%d wmt=%d",
			plain.TotalColdStarts, plain.TotalWMT)
	}
}

// TestRetrainCacheKeySeparation proves the cache-key rule for online
// re-categorization: retrain-enabled and plain runs of the same policy over
// the same shards must never share entries — in memory or on disk — while
// each reproduces its own cold results bit-for-bit from a warm (and a
// restarted) cache.
func TestRetrainCacheKeySeparation(t *testing.T) {
	s := eqvSettings(1)
	if err := s.ApplyScenario("churn"); err != nil {
		t.Fatal(err)
	}
	_, train, simTr, err := experiments.BuildWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := sim.OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache := sim.NewShardCache()
	cache.AttachDisk(disk)
	const shards = 3

	run := func(c *sim.ShardCache, retrain int) *sim.Result {
		t.Helper()
		r, err := sim.Run(core.New(core.DefaultConfig()), train, simTr,
			sim.Options{Shards: shards, Cache: c, RetrainEvery: retrain})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	plain := run(cache, 0)
	if st := cache.Stats(); st.Hits != 0 || st.Misses != shards {
		t.Fatalf("plain cold pass: stats %+v, want %d misses", st, shards)
	}
	retrained := run(cache, 1440)
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 2*shards {
		t.Fatalf("retrain pass hit plain entries: stats %+v, want %d misses and no hits", st, 2*shards)
	}
	if plain.TotalColdStarts == retrained.TotalColdStarts && plain.TotalWMT == retrained.TotalWMT {
		t.Fatal("retrain-enabled run reproduced the plain run; key separation untestable")
	}

	warm := run(cache, 1440)
	assertSameResult(t, "warm retrain replay", retrained, warm)
	if st := cache.Stats(); st.Hits != shards || st.DiskHits != 0 {
		t.Fatalf("warm retrain pass: stats %+v, want %d in-memory hits", st, shards)
	}

	// A restarted process (fresh in-memory cache, same entry directory)
	// must restore each mode's own entries from disk.
	for _, c := range []struct {
		retrain int
		want    *sim.Result
	}{{1440, retrained}, {0, plain}} {
		restarted := sim.NewShardCache()
		restarted.AttachDisk(disk)
		got := run(restarted, c.retrain)
		assertSameResult(t, fmt.Sprintf("restart replay retrain=%d", c.retrain), c.want, got)
		if st := restarted.Stats(); st.DiskHits != shards {
			t.Fatalf("restart retrain=%d: stats %+v, want %d disk hits", c.retrain, st, shards)
		}
	}
}

// TestSteadyScenarioSharesCacheKeys asserts the steady library scenario is
// cache-key-compatible with never applying a scenario at all: the
// generator-source shard fingerprints (a cache-key component) must match,
// so stationary sweeps keep hitting pre-scenario disk entries, while a
// phased scenario must fingerprint apart.
func TestSteadyScenarioSharesCacheKeys(t *testing.T) {
	plain, err := experiments.StreamSource(eqvSettings(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	steadyS := eqvSettings(1)
	if err := steadyS.ApplyScenario("steady"); err != nil {
		t.Fatal(err)
	}
	steady, err := experiments.StreamSource(steadyS, 2)
	if err != nil {
		t.Fatal(err)
	}
	driftS := eqvSettings(1)
	if err := driftS.ApplyScenario("drift"); err != nil {
		t.Fatal(err)
	}
	drift, err := experiments.StreamSource(driftS, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		pf, _ := plain.ShardFingerprint(i)
		sf, _ := steady.ShardFingerprint(i)
		df, _ := drift.ShardFingerprint(i)
		if pf != sf {
			t.Errorf("shard %d: steady fingerprint %x != plain %x (stationary cache keys split)", i, sf, pf)
		}
		if df == pf {
			t.Errorf("shard %d: drift fingerprint collides with plain", i)
		}
	}
}
