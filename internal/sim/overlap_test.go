package sim_test

import (
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The batch engine transposes each chunk of slots beside the Driver's Ticks
// on the chunk before, and builds each retrain window into one reused
// WindowBuilder at its boundary (runOne). These tests hold it to the loop
// it replaced, kept here as the reference: one Driver fed the whole BySlot
// stream, whose Window builds each boundary's window afresh when the
// Driver asks for it.

const (
	overlapFunctions  = 120
	overlapDays       = 4
	overlapTrainSlots = 3 * 1440
	overlapEvery      = 240
	// overlapBlank is a boundary whose invocations the fixture removes, so
	// the boundaries fall on both occupied and unoccupied slots.
	overlapBlank = 2 * overlapEvery
)

// overlapConfig is a drifting workload: the retrains see windows that differ
// from the training trace, so a misplaced window changes the outcome.
func overlapConfig(t testing.TB) trace.GeneratorConfig {
	cfg := trace.DefaultGeneratorConfig(overlapFunctions, overlapDays, 5)
	sc, err := trace.NamedScenario("drift", overlapTrainSlots, overlapDays*1440)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = sc
	return cfg
}

// overlapFixture returns the generated train/sim pair and a copy of the
// simulation half with every event at slot overlapBlank removed.
func overlapFixture(t testing.TB) (training, simTr, blanked *trace.Trace) {
	full, err := trace.Generate(overlapConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	training, simTr = full.Split(overlapTrainSlots)
	blanked = &trace.Trace{Slots: simTr.Slots, Functions: simTr.Functions, Series: make([]trace.Series, len(simTr.Series))}
	for f, s := range simTr.Series {
		blanked.Series[f] = slices.DeleteFunc(slices.Clone(s), func(e trace.Event) bool { return e.Slot == overlapBlank })
	}
	return training, simTr, blanked
}

// retrainWindow resolves Options.RetrainWindow as the engine does.
func retrainWindow(training *trace.Trace, every, window int) int {
	switch {
	case window > 0:
		return window
	case training != nil && training.Slots > 0:
		return training.Slots
	}
	return every
}

// serialRetrainRun is the reference: one Driver over the whole BySlot
// stream, building each window afresh at its boundary.
func serialRetrainRun(t testing.TB, p sim.Policy, training, simTr *trace.Trace, opts sim.Options) *sim.Result {
	t.Helper()
	if training != nil {
		p.Train(training)
	}
	d := sim.NewDriver(p, simTr.NumFunctions(), sim.DriverConfig{
		RetrainEvery:  opts.RetrainEvery,
		RetrainWindow: retrainWindow(training, opts.RetrainEvery, opts.RetrainWindow),
		Window: func(at, w int) *trace.Trace {
			return sim.BuildRetrainWindow(training, simTr, at, w)
		},
	})
	for at, invs := range simTr.BySlot(0, simTr.Slots) {
		if _, err := d.Step(at, invs); err != nil {
			t.Fatal(err)
		}
	}
	return d.Close(simTr.Slots)
}

// recordingSPES checks every window it is handed against a fresh
// sim.BuildRetrainWindow at the same slot, once on entry and again after
// the categorizer ran over it: a window built for another boundary fails
// the first check, one that a concurrent build overwrites the second.
type recordingSPES struct {
	*core.SPES
	t               testing.TB
	training, simTr *trace.Trace
	window          int
	at              []int
}

func (r *recordingSPES) Retrain(at int, window *trace.Trace) {
	want := sim.BuildRetrainWindow(r.training, r.simTr, at, r.window)
	if !reflect.DeepEqual(window, want) {
		r.t.Errorf("Retrain(%d): window differs from BuildRetrainWindow(%d, %d) on entry", at, at, r.window)
	}
	r.SPES.Retrain(at, window)
	if !reflect.DeepEqual(window, want) {
		r.t.Errorf("Retrain(%d): window changed while Retrain held it", at)
	}
	r.at = append(r.at, at)
}

type overlapCase struct {
	name          string
	every, window int
	noTraining    bool
	procs         int  // GOMAXPROCS for the run; 0 leaves it
	held          bool // run inside a FanOut that holds every token
	shards        int
	stream        bool // a GeneratorSource of 3 shards over the unblanked pair
}

var overlapCases = []overlapCase{
	{name: "boundaries-occupied-and-not", every: overlapEvery},
	{name: "every-not-dividing-slots", every: 700},
	{name: "every-equals-slots", every: 1440},
	{name: "every-past-slots", every: 2000},
	{name: "nil-training", every: overlapEvery, noTraining: true},
	{name: "window-shorter-than-training", every: overlapEvery, window: 300},
	{name: "window-longer-than-training", every: overlapEvery, window: overlapTrainSlots + 500},
	{name: "gomaxprocs-1", every: overlapEvery, procs: 1},
	{name: "gomaxprocs-2", every: overlapEvery, procs: 2},
	{name: "every-token-held", every: overlapEvery, procs: 2, held: true},
	{name: "shards-3", every: overlapEvery, shards: 3},
	{name: "streamed", every: overlapEvery, stream: true},
}

// TestRetrainOverlapMatchesSerialLoop holds Run with retraining on to the
// serial reference (Result.Diff), for SPES and the dense
// reference (which cannot shard, so the sharded and streamed cases run SPES
// only). Where the engine runs unsharded, a recording SPES also checks every
// window and that Retrain is called at exactly the boundaries k·RetrainEvery
// inside the simulation window.
func TestRetrainOverlapMatchesSerialLoop(t *testing.T) {
	training, plain, blanked := overlapFixture(t)
	occupied := map[int]bool{}
	for at := range blanked.BySlot(0, blanked.Slots) {
		occupied[at] = true
	}
	var on, off int
	for b := overlapEvery; b < blanked.Slots; b += overlapEvery {
		if occupied[b] {
			on++
		} else {
			off++
		}
	}
	if on == 0 || off == 0 {
		t.Fatalf("fixture boundaries: %d occupied, %d unoccupied; want both", on, off)
	}

	policies := []struct {
		name string
		new  func() sim.Policy
	}{
		{"spes", func() sim.Policy { return core.New(core.DefaultConfig()) }},
		{"dense", func() sim.Policy { return core.NewDenseReference(core.DefaultConfig()) }},
	}
	for _, c := range overlapCases {
		t.Run(c.name, func(t *testing.T) {
			if c.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			}
			train, simTr := training, blanked
			if c.stream {
				simTr = plain
			}
			// SPES cannot start untrained, so the nil-training case trains
			// each policy before the run: the run itself sees no training
			// trace, and the windows hold recorded history alone.
			fresh := func(p sim.Policy) sim.Policy {
				if c.noTraining {
					p.Train(training)
				}
				return p
			}
			if c.noTraining {
				train = nil
			}
			// An unsharded case runs the single-population engine, whose
			// own instance the recording SPES below inspects.
			opts := sim.Options{RetrainEvery: c.every, RetrainWindow: c.window, Shards: max(c.shards, 1)}
			for _, p := range policies {
				if (c.shards > 1 || c.stream) && p.name != "spes" {
					continue
				}
				want := serialRetrainRun(t, fresh(p.new()), train, simTr, opts)
				var got *sim.Result
				var err error
				switch {
				case c.stream:
					src := &sim.GeneratorSource{Cfg: overlapConfig(t), TrainSlots: overlapTrainSlots, Shards: 3}
					got, err = sim.RunStreamed(p.new(), src, sim.Options{RetrainEvery: c.every})
				case c.held:
					holdingEveryToken(t, func() { got, err = sim.Run(fresh(p.new()), train, simTr, opts) })
				default:
					got, err = sim.Run(fresh(p.new()), train, simTr, opts)
				}
				if err != nil {
					t.Fatal(err)
				}
				if d := want.Diff(got); d != "" {
					t.Errorf("%s: Run differs from the serial loop:\n%s", p.name, d)
				}
			}
			if c.shards > 1 || c.stream {
				return
			}
			w := retrainWindow(train, c.every, c.window)
			rec := &recordingSPES{SPES: fresh(core.New(core.DefaultConfig())).(*core.SPES), t: t, training: train, simTr: simTr, window: w}
			if _, err := sim.Run(rec, train, simTr, opts); err != nil {
				t.Fatal(err)
			}
			var boundaries []int
			for b := c.every; b < simTr.Slots; b += c.every {
				boundaries = append(boundaries, b)
			}
			if !slices.Equal(rec.at, boundaries) {
				t.Errorf("Retrain slots = %v, want %v", rec.at, boundaries)
			}
		})
	}
}

// TestRetrainOverlapFixtureRetrains guards the fixture: retraining must
// change the outcome on it, or a wrong window could go unseen.
func TestRetrainOverlapFixtureRetrains(t *testing.T) {
	training, _, blanked := overlapFixture(t)
	var res [2]*sim.Result
	for i, every := range []int{0, overlapEvery} {
		r, err := sim.Run(core.New(core.DefaultConfig()), training, blanked, sim.Options{RetrainEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		res[i] = r
	}
	if a, b := res[0], res[1]; a.TotalColdStarts == b.TotalColdStarts && a.TotalWMT == b.TotalWMT {
		t.Fatalf("retraining every %d slots left cold starts (%d) and WMT (%d) unchanged",
			overlapEvery, a.TotalColdStarts, a.TotalWMT)
	}
}

// holdingEveryToken runs fn inside a trace.FanOut whose helpers hold every
// token of the process-wide budget until fn returns, so every FanOut fn
// makes runs its items on its own caller. The outer call's caller starts
// helpers until no token is left before it takes an item, so fn waits for
// the caller to be in; a probe then checks that no helper can start.
func holdingEveryToken(t *testing.T, fn func()) {
	t.Helper()
	const width = 256 // more than the budget of any machine this runs on
	var callerIn atomic.Bool
	release := make(chan struct{})
	err := trace.FanOut(width, width, func(w, i int) error {
		if w == 0 {
			callerIn.Store(true)
		}
		if i > 0 {
			<-release
			return nil
		}
		defer close(release)
		for deadline := time.Now().Add(5 * time.Second); !callerIn.Load(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Error("the caller of the token-holding FanOut never took an item")
				return nil
			}
		}
		var helped atomic.Bool
		trace.FanOut(2, 2, func(w, i int) error {
			if i == 0 {
				time.Sleep(10 * time.Millisecond) // time for a helper to take item 1
			} else if w > 0 {
				helped.Store(true)
			}
			return nil
		})
		if helped.Load() {
			t.Error("a FanOut found a token while every token should be held")
			return nil
		}
		fn()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// serialPlainRun is the reference for a run without retraining: one Driver
// fed the whole BySlot stream on the caller's goroutine.
func serialPlainRun(t testing.TB, p sim.Policy, training, simTr *trace.Trace) *sim.Result {
	t.Helper()
	p.Train(training)
	d := sim.NewDriver(p, simTr.NumFunctions(), sim.DriverConfig{})
	for at, invs := range simTr.BySlot(0, simTr.Slots) {
		if _, err := d.Step(at, invs); err != nil {
			t.Fatal(err)
		}
	}
	return d.Close(simTr.Slots)
}

// TestChunkLoopMatchesSerialLoop holds a run without retraining — the
// Driver stepping one chunk while the next is transposed beside it — to
// the serial reference (Result.Diff): SPES by default (sharded at
// GOMAXPROCS > 1, each shard's rounds one-wide) and at Shards 1 (one
// population, rounds two-wide), its dense reference and both
// capacity-coupled baselines (which take the same loop under Shards > 1),
// at GOMAXPROCS 1 and 2, and at 2 inside a FanOut that holds every token,
// where each round runs its items one after the other.
func TestChunkLoopMatchesSerialLoop(t *testing.T) {
	training, _, blanked := overlapFixture(t)
	n := blanked.NumFunctions()
	policies := []struct {
		name   string
		new    func() sim.Policy
		shards int
	}{
		{"spes", func() sim.Policy { return core.New(core.DefaultConfig()) }, 0},
		{"spes/shards-1", func() sim.Policy { return core.New(core.DefaultConfig()) }, 1},
		{"dense", func() sim.Policy { return core.NewDenseReference(core.DefaultConfig()) }, 0},
		{"faascache", func() sim.Policy { return baselines.NewFaaSCache(n / 10) }, 0},
		{"lcs", func() sim.Policy { return baselines.NewLCS(n / 10) }, 3},
	}
	modes := []struct {
		name  string
		procs int
		held  bool
	}{{"gomaxprocs-1", 1, false}, {"gomaxprocs-2", 2, false}, {"every-token-held", 2, true}}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(m.procs))
			for _, p := range policies {
				want := serialPlainRun(t, p.new(), training, blanked)
				var got *sim.Result
				var err error
				run := func() { got, err = sim.Run(p.new(), training, blanked, sim.Options{Shards: p.shards}) }
				if m.held {
					holdingEveryToken(t, run)
				} else {
					run()
				}
				if err != nil {
					t.Fatal(err)
				}
				if d := want.Diff(got); d != "" {
					t.Errorf("%s: Run differs from the serial loop:\n%s", p.name, d)
				}
			}
		})
	}
}
