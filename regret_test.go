// The clairvoyant bound. Take consecutive invocations of a function at
// simulation slots a < b with b − a ≥ 2: any policy either pays a cold start
// at b or holds the function loaded, and idle, at b − 1, and those slots are
// disjoint across such gaps. So for every function
//
//	ColdStarts_f + WMTMinutes_f ≥ G_f,
//
// where G_f counts the gaps. A policy that knows the future meets the bound
// with no cold start at all: holding exactly next slot's functions, it idles
// one minute before every invoked slot b ≥ 1 whose slot b − 1 is not
// invoked. That closed form shares no code with the Driver, so the
// clairvoyant policy below is an oracle for the Driver's accounting through
// every engine, and the bound is a floor every roster policy must respect.
package main

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/eqv"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

// identity names a function independently of the FuncID space it sits in:
// a shard view renumbers its functions, and the same function is found by
// who it is.
type identity struct{ Name, App, User string }

// clairvoyant holds, after Train, the functions slot 0 invokes and, after
// Tick(t), exactly the functions slot t+1 invokes.
type clairvoyant struct {
	sim.LoadedSet
	future map[identity]trace.Series // the simulation window, shared by every shard instance
	slots  int

	at       [][]trace.FuncID // per slot, the (local) functions it invokes, ascending
	occupied []int            // slots invoking anything, ascending
}

func newClairvoyant(t *testing.T, simTr *trace.Trace) *clairvoyant {
	future := make(map[identity]trace.Series, simTr.NumFunctions())
	for f, fn := range simTr.Functions {
		future[identity{fn.Name, fn.App, fn.User}] = simTr.Series[f]
	}
	if len(future) != simTr.NumFunctions() {
		t.Fatalf("%d functions share %d identities", simTr.NumFunctions(), len(future))
	}
	return &clairvoyant{future: future, slots: simTr.Slots}
}

func (c *clairvoyant) Name() string { return "Clairvoyant" }

// Train learns the window of the functions training holds, by identity, and
// loads what slot 0 invokes.
func (c *clairvoyant) Train(training *trace.Trace) {
	c.Reset(training.NumFunctions())
	c.at = make([][]trace.FuncID, c.slots)
	for f, fn := range training.Functions {
		for _, ev := range c.future[identity{fn.Name, fn.App, fn.User}] {
			c.at[ev.Slot] = append(c.at[ev.Slot], trace.FuncID(f))
		}
	}
	c.occupied = c.occupied[:0]
	for s, fs := range c.at {
		if len(fs) > 0 {
			c.occupied = append(c.occupied, s)
		}
	}
	for _, f := range c.at[0] {
		c.Load(f)
	}
}

func (c *clairvoyant) Tick(t int, _ []trace.FuncCount) {
	var next []trace.FuncID
	if t+1 < c.slots {
		next = c.at[t+1]
	}
	for _, f := range c.at[t] {
		if _, found := slices.BinarySearch(next, f); !found {
			c.Unload(f)
		}
	}
	for _, f := range next {
		c.Load(f)
	}
}

// NextWake implements sim.IdleSkipper: the policy acts at every invoked
// slot and at the slot before it.
func (c *clairvoyant) NextWake(after, limit int) (int, bool) {
	i := sort.SearchInts(c.occupied, after+1)
	if i == len(c.occupied) {
		return -1, true
	}
	if wake := max(c.occupied[i]-1, after+1); wake <= limit {
		return wake, true
	}
	return -1, true
}

func (c *clairvoyant) NewShard() sim.Policy { return &clairvoyant{future: c.future, slots: c.slots} }

// gaps returns G_f for a series: consecutive invoked slots at least two apart.
func gaps(s trace.Series) int64 {
	var g int64
	for i := 1; i < len(s); i++ {
		if s[i].Slot-s[i-1].Slot >= 2 {
			g++
		}
	}
	return g
}

// clairvoyantWMT is the closed form: invoked slots b ≥ 1 whose slot b − 1 is
// not invoked.
func clairvoyantWMT(s trace.Series) int64 {
	var w int64
	for i, ev := range s {
		if ev.Slot >= 1 && (i == 0 || s[i-1].Slot != ev.Slot-1) {
			w++
		}
	}
	return w
}

// TestClairvoyantMeetsTheBound holds the clairvoyant policy's per-function
// Result to the closed form through every engine: unsharded (idle spans
// skipped, and every slot ticked), sharded and streamed.
func TestClairvoyantMeetsTheBound(t *testing.T) {
	s := experiments.QuickSettings()
	w, err := eqv.Materialize(s)
	if err != nil {
		t.Fatal(err)
	}
	src, err := experiments.StreamSource(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	oracle := newClairvoyant(t, w.Sim)
	var sumG, sumWMT int64
	for _, ser := range w.Sim.Series {
		sumG += gaps(ser)
		sumWMT += clairvoyantWMT(ser)
	}
	t.Logf("%d functions: G = %d, clairvoyant WMT = %d", w.Sim.NumFunctions(), sumG, sumWMT)

	for _, run := range []struct {
		name string
		run  func() (*sim.Result, error)
	}{
		{"unsharded", func() (*sim.Result, error) { return sim.Run(oracle.NewShard(), w.Train, w.Sim, sim.Options{Shards: 1}) }},
		{"unsharded, every slot ticked", func() (*sim.Result, error) {
			return sim.Run(eqv.ScanOnly(oracle.NewShard()), w.Train, w.Sim, sim.Options{Shards: 1})
		}},
		{"sharded x4", func() (*sim.Result, error) { return sim.Run(oracle, w.Train, w.Sim, sim.Options{Shards: 4}) }},
		{"streamed x4", func() (*sim.Result, error) { return sim.RunStreamed(oracle, src, sim.Options{}) }},
	} {
		res, err := run.run()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if len(res.PerFunc) != w.Sim.NumFunctions() {
			t.Fatalf("%s: %d functions in the result, want %d", run.name, len(res.PerFunc), w.Sim.NumFunctions())
		}
		bad := 0
		for f, ser := range w.Sim.Series {
			m := res.PerFunc[f]
			if m.ColdStarts != 0 || m.WMTMinutes != clairvoyantWMT(ser) || m.InvokedSlot != int64(len(ser)) {
				if bad++; bad <= 3 {
					t.Errorf("%s: function %d: cold %d, WMT %d, invoked slots %d; want 0, %d, %d",
						run.name, f, m.ColdStarts, m.WMTMinutes, m.InvokedSlot, clairvoyantWMT(ser), len(ser))
				}
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d functions off the closed form", run.name, bad, w.Sim.NumFunctions())
		}
	}
}

// TestRosterRespectsTheBound: no function of any roster policy falls below
// the clairvoyant bound. Each row's excess over it, (cold + WMT − G) / G, is
// logged.
func TestRosterRespectsTheBound(t *testing.T) {
	w, err := eqv.Materialize(experiments.QuickSettings())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := w.PolicyTable([]string{"fixed", "hf", "ha", "defuse"}, []string{"faascache", "lcs"}, 0, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(experiments.PolicyNames()) {
		t.Fatalf("%d rows for %d roster policies", len(rows), len(experiments.PolicyNames()))
	}
	g := make([]int64, w.Sim.NumFunctions())
	var sumG int64
	for f, ser := range w.Sim.Series {
		g[f] = gaps(ser)
		sumG += g[f]
	}
	for _, row := range rows {
		var paid int64
		for f, m := range row.Result.PerFunc {
			if m.ColdStarts+m.WMTMinutes < g[f] {
				t.Errorf("%s: function %d pays cold %d + WMT %d below its %d gaps", row.Label, f, m.ColdStarts, m.WMTMinutes, g[f])
			}
			paid += m.ColdStarts + m.WMTMinutes
		}
		t.Logf("%-22s (cold + WMT − G) / G = %.2f", row.Label, float64(paid-sumG)/float64(sumG))
	}
}
