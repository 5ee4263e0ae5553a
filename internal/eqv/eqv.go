// Package eqv is the equivalence harness: the bit-identity contract every
// engine variant is held to, written as data. A Matrix is one workload and
// its rows; a Row holds each of its engines to one reference engine for
// every policy of its roster, seed by seed, with (*sim.Result).Diff. The
// root package's equivalence tests and cmd/eqvcheck are Matrix values
// handed to Check, so a pairing added here runs in both. The package also
// holds the fixtures those comparisons share: rosters, the scan-accounting
// wrapper, the memoized workloads, a closed-form oracle and user policies.
package eqv

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The store doors stream a trace.StoreSource.
var _ sim.Source = (*trace.StoreSource)(nil)

// Workload is what every row of a Matrix simulates, once per seed.
type Workload struct {
	Settings     experiments.Settings // Seed is replaced by each of Seeds; a pending Scenario.Name is positioned per seed
	Seeds        []int64              // empty: Settings.Seed alone
	RetrainEvery int                  // online re-categorization cadence of every run (0: off)
	Trace        string               // an Azure-schema CSV the materialized and store doors hold instead of a generated trace (one seed only)
}

// Matrix is one workload, the rows compared over it, and how runs execute.
type Matrix struct {
	Workload
	Rows    []Row
	Workers int // sim.Options.Workers of every run
}

// Row holds every engine to Ref for every policy, a fresh instance per run.
// A reference with no cold start, or wasting no memory unless Unwasted
// allows it (LCS over a small pool holds only what it serves), fails.
type Row struct {
	Policies []Policy
	Ref      Engine
	Engines  []Engine
	Unwasted bool
}

// Policy is a roster entry: the policy under test and, where they exist,
// its per-slot reference twin and an independent closed form. An engine
// running an implementation the policy lacks skips it.
type Policy struct {
	Name          string
	New           func() sim.Policy
	Dense, Oracle func() sim.Policy
}

// Engine is one way to simulate a policy, built from the values and
// constructors below.
type Engine struct {
	impl   uint8 // which of Policy.New, Dense and Oracle runs
	scan   bool  // behind ScanOnly
	door   uint8
	shards int
	runAll bool // the row's whole roster through one sim.RunAll
}

const (
	materialized = iota // the train/sim pair in memory; shards > 1 sets sim.Options.Shards
	streamed            // a generator source of that many shards
	storeCold           // Workload.Trace ingested into a columnar store that many shards wide
	storeWarm           // that store reopened; its storeCold must have run first
)

var (
	Event       = Engine{}           // the policy as shipped, unsharded
	Scan        = Engine{scan: true} // scan-derived accounting, every slot ticked
	Dense       = Engine{impl: 1}    // the per-slot reference twin
	DenseByScan = Engine{impl: 1, scan: true}
	Oracle      = Engine{impl: 2} // the independent closed form
)

// Sharded, Streamed, StoreCold, StoreWarm and RunAll run p shards wide.
func Sharded(p int) Engine   { return Engine{shards: p} }
func Streamed(p int) Engine  { return Engine{door: streamed, shards: p} }
func StoreCold(p int) Engine { return Engine{door: storeCold, shards: p} }
func StoreWarm(p int) Engine { return Engine{door: storeWarm, shards: p} }
func RunAll(p int) Engine    { return Engine{shards: p, runAll: true} }

func (e Engine) String() string {
	s := [...]string{"event", "dense", "oracle"}[e.impl]
	if e.scan {
		s += "+scan"
	}
	if e.door != materialized || e.shards > 1 {
		d := fmt.Sprintf("%s x%d", [...]string{"sharded", "streamed", "store (cold)", "store (warm)"}[e.door], e.shards)
		s = strings.TrimPrefix(s+" "+d, "event ")
	}
	if e.runAll {
		s = "RunAll " + s
	}
	return s
}

// policy builds p's implementation e runs, or nil when p has none.
func (e Engine) policy(p Policy) sim.Policy {
	mk := [...]func() sim.Policy{p.New, p.Dense, p.Oracle}[e.impl]
	switch {
	case mk == nil:
		return nil
	case e.scan:
		return ScanOnly(mk())
	}
	return mk()
}

// Report is what Check found.
type Report struct {
	Refs       []Ref // every reference result, in run order (seed, row, policy)
	Mismatches []Mismatch
	Ingested   *trace.IngestStats // the store doors' ingest of Workload.Trace
}

// Ref is one reference result.
type Ref struct {
	Seed   int64
	Policy string
	*sim.Result
}

// Mismatch is one engine's result differing from its reference.
type Mismatch struct{ Label, Diff string }

func (m Mismatch) String() string { return m.Label + ": MISMATCH\n" + m.Diff }

// Check runs every row of m for every seed and returns the mismatches. An
// error is a run that failed, a degenerate reference, or an ingest that
// lost functions or slots.
func Check(m Matrix) (*Report, error) {
	tmp, err := os.MkdirTemp("", "eqv-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	c := &checker{m: m, tmp: tmp}
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []int64{m.Settings.Seed}
	}
	if m.Trace != "" && len(seeds) > 1 {
		return nil, fmt.Errorf("a trace workload has one seed, got %v", seeds)
	}
	for _, seed := range seeds {
		c.s, c.doors = m.Settings, map[Engine]*experiments.Workload{}
		c.s.Seed = seed
		c.at = fmt.Sprintf("seed %d", seed)
		if sc := m.Settings.Scenario.Name; sc != "" || m.RetrainEvery > 0 {
			c.at = strings.TrimSpace(fmt.Sprintf("%s retrain=%d %s", sc, m.RetrainEvery, c.at))
		}
		for _, r := range m.Rows {
			if err := c.row(r, seed); err != nil {
				return &c.rep, err
			}
		}
	}
	return &c.rep, nil
}

type checker struct {
	m     Matrix
	rep   Report
	tmp   string // this Check's own directory, holding store-<p>
	s     experiments.Settings
	at    string // the current seed's label prefix
	doors map[Engine]*experiments.Workload
}

func (c *checker) label(p Policy, e Engine) string { return fmt.Sprintf("%s: %s: %s", c.at, p.Name, e) }

func (c *checker) row(r Row, seed int64) error {
	refs, err := c.run(r.Ref, r.Policies)
	if err != nil {
		return err
	}
	for i, ref := range refs {
		switch {
		case ref == nil:
			return fmt.Errorf("%s: no such implementation", c.label(r.Policies[i], r.Ref))
		case ref.TotalColdStarts == 0 || ref.TotalWMT == 0 && !r.Unwasted:
			return fmt.Errorf("%s: degenerate reference (cold=%d wmt=%d) proves nothing",
				c.label(r.Policies[i], r.Ref), ref.TotalColdStarts, ref.TotalWMT)
		}
		c.rep.Refs = append(c.rep.Refs, Ref{seed, r.Policies[i].Name, ref})
	}
	for _, e := range r.Engines {
		got, err := c.run(e, r.Policies)
		if err != nil {
			return err
		}
		for i, g := range got {
			if g == nil {
				continue
			}
			if d := refs[i].Diff(g); d != "" {
				c.rep.Mismatches = append(c.rep.Mismatches, Mismatch{c.label(r.Policies[i], e) + " vs " + r.Ref.String(), d})
			}
		}
	}
	return nil
}

// run simulates every policy of ps on e.
func (c *checker) run(e Engine, ps []Policy) ([]*sim.Result, error) {
	w, err := c.door(e)
	if err != nil {
		return nil, err
	}
	opts := sim.Options{Workers: c.m.Workers, RetrainEvery: c.m.RetrainEvery}
	if e.door == materialized {
		opts.Shards = e.shards
	}
	impls := make([]sim.Policy, len(ps))
	for i, p := range ps {
		impls[i] = e.policy(p)
	}
	res := make([]*sim.Result, len(ps))
	if e.runAll {
		if res, err = w.RunAll(impls, opts); err != nil {
			return nil, fmt.Errorf("%s %s: %w", c.at, e, err)
		}
	}
	for i, p := range impls {
		if p == nil || e.runAll {
			continue
		}
		if res[i], err = w.Run(p, opts); err != nil {
			return nil, fmt.Errorf("%s: %w", c.label(ps[i], e), err)
		}
	}
	if len(res) != len(ps) {
		return nil, fmt.Errorf("%s %s: %d results for %d policies", c.at, e, len(res), len(ps))
	}
	for i, r := range res {
		if r == nil && impls[i] != nil { // a nil result is only a policy e cannot run
			return nil, fmt.Errorf("%s: no result and no error", c.label(ps[i], e))
		}
	}
	return res, nil
}

// door opens e's workload for the current seed, once per seed.
func (c *checker) door(e Engine) (*experiments.Workload, error) {
	k := Engine{door: e.door, shards: e.shards}
	if k.door == materialized {
		k.shards = 0
	}
	if w := c.doors[k]; w != nil {
		return w, nil
	}
	var w *experiments.Workload
	var err error
	store := filepath.Join(c.tmp, fmt.Sprintf("store-%d", e.shards))
	switch {
	case e.door == materialized:
		w, err = experiments.Open(c.s, experiments.Input{Trace: c.m.Trace})
	case e.door == streamed:
		w, err = experiments.Open(c.s, experiments.Input{Stream: true, Shards: e.shards})
	case e.door == storeCold:
		w, err = experiments.Open(c.s, experiments.Input{Trace: c.m.Trace, Store: store, Shards: e.shards})
	case c.doors[Engine{door: storeCold, shards: e.shards}] == nil:
		err = fmt.Errorf("%s before %s: nothing to reopen", e, StoreCold(e.shards))
	default:
		w, err = experiments.Open(c.s, experiments.Input{Store: store})
	}
	if err != nil {
		return nil, err
	}
	if st := w.Ingested; st != nil {
		c.rep.Ingested = st
		mat, err := c.door(Event)
		if err == nil && (st.Functions != mat.Train.NumFunctions() || st.Slots != mat.Train.Slots+mat.Sim.Slots) {
			err = fmt.Errorf("ingested %d functions x %d slots, want the trace's %d x %d",
				st.Functions, st.Slots, mat.Train.NumFunctions(), mat.Train.Slots+mat.Sim.Slots)
		}
		if err != nil {
			return nil, err
		}
	}
	c.doors[k] = w
	return w, nil
}

// SPES is the event-driven SPES with core.DenseReference as its twin.
func SPES() Policy {
	return Policy{Name: "SPES", New: func() sim.Policy { return core.New(core.DefaultConfig()) },
		Dense: func() sim.Policy { return core.NewDenseReference(core.DefaultConfig()) }}
}

// Fixed is the 10-minute keep-alive with its closed-form oracle.
func Fixed() Policy {
	return Policy{Name: "FixedKeepAlive", New: func() sim.Policy { return baselines.NewFixedKeepAlive(10) },
		Oracle: func() sim.Policy { return &closedFormKeepAlive{keepAlive: 10} }}
}

// Wheel is the deadline-based baselines, which run on sched.Wheel.
func Wheel() []Policy {
	return []Policy{
		Fixed(),
		{Name: "HybridFunction", New: func() sim.Policy { return baselines.NewHybridFunction(baselines.DefaultHybridConfig()) }},
		{Name: "HybridApplication", New: func() sim.Policy { return baselines.NewHybridApplication(baselines.DefaultHybridConfig()) }},
		{Name: "Defuse", New: func() sim.Policy { return baselines.NewDefuse(baselines.DefaultDefuseConfig()) }},
	}
}

// Capacity is the capacity-coupled baselines over a pool of that many
// functions.
func Capacity(pool int) []Policy {
	return []Policy{
		{Name: "FaaSCache", New: func() sim.Policy { return baselines.NewFaaSCache(pool) }},
		{Name: "LCS", New: func() sim.Policy { return baselines.NewLCS(pool) }},
	}
}

// AdaptiveTTL is a policy a user of the public facade writes: New hands
// the simulator a hand-written delta log, Oracle implements sim.Policy only.
func AdaptiveTTL() Policy {
	return Policy{Name: "AdaptiveTTL", New: func() sim.Policy { return adaptiveTTLTracked{&adaptiveTTL{minTTL: 2, maxTTL: 240}} },
		Oracle: func() sim.Policy { return &adaptiveTTL{minTTL: 2, maxTTL: 240} }}
}

// memo holds Materialize's workloads, keyed by the printed Settings.
var memo = struct {
	sync.Mutex
	m map[string]*experiments.Workload
}{m: map[string]*experiments.Workload{}}

// Materialize is the generated, materialized workload of s, built once per
// process and shared — sound because sim, core, the baselines and serve only
// read the traces they are handed. Callers must not modify it.
func Materialize(s experiments.Settings) (*experiments.Workload, error) {
	key := fmt.Sprintf("%#v", s)
	memo.Lock()
	defer memo.Unlock()
	if w, ok := memo.m[key]; ok {
		return w, nil
	}
	w, err := experiments.Open(s, experiments.Input{})
	if err == nil {
		memo.m[key] = w
	}
	return w, err
}

// ScanOnly hides p's LoadDeltaTracker and every other optional interface
// (NextWake, NewShard) but TypeTagger and Retrainer, so the
// simulator derives p's deltas from a per-slot Loaded scan and ticks every
// slot: the reference for delta logs and idle-span skipping.
func ScanOnly(p sim.Policy) sim.Policy {
	if _, ok := p.(sim.TypeTagger); !ok {
		return scanOnly{p}
	}
	if _, ok := p.(sim.Retrainer); ok {
		return scanOnlyRetrain{scanOnlyTagged{p}}
	}
	return scanOnlyTagged{p}
}

type (
	scanOnly        struct{ sim.Policy }
	scanOnlyTagged  struct{ sim.Policy }
	scanOnlyRetrain struct{ scanOnlyTagged }
)

func (s scanOnlyTagged) TypeOf(f trace.FuncID) string { return s.Policy.(sim.TypeTagger).TypeOf(f) }

func (s scanOnlyRetrain) Retrain(t int, w *trace.Trace) { s.Policy.(sim.Retrainer).Retrain(t, w) }

// FlipLoaded is mk's policy, accounted by scan, with one answer wrong:
// function 0's Loaded is negated while slot is the last one ticked. It
// proves a comparison compares: every row holding it to mk's must mismatch.
func FlipLoaded(mk func() sim.Policy, slot int) func() sim.Policy {
	return func() sim.Policy { return &flipped{Policy: mk(), slot: slot, t: -1} }
}

type flipped struct {
	sim.Policy
	slot, t int
}

func (p *flipped) Tick(t int, invs []trace.FuncCount) { p.t = t; p.Policy.Tick(t, invs) }

func (p *flipped) Loaded(f trace.FuncID) bool {
	return p.Policy.Loaded(f) != (f == 0 && p.t == p.slot)
}

// closedFormKeepAlive is fixed keep-alive with no scheduler: a function is
// loaded iff 0 <= t - last < keepAlive, t the slot last ticked. Train
// evaluates the window at slot 0, as FixedKeepAlive does (a window closing
// at the train/sim boundary starts unloaded). It logs no deltas and shares
// no code with the wheel: the deadline-based baselines' independent row.
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

// adaptiveTTL is examples/custompolicy's AdaptiveTTL in shape: a TTL doubled
// on a cold start, decayed on a warm hit, expired by a linear scan. It logs
// its flips; only adaptiveTTLTracked hands the log to the simulator.
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
