package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// alwaysLoadedPolicy keeps every function loaded forever: zero cold starts
// after the initial state, maximal memory waste.
type alwaysLoadedPolicy struct{ n int }

func (p *alwaysLoadedPolicy) Name() string                { return "always-loaded" }
func (p *alwaysLoadedPolicy) Train(*trace.Trace)          {}
func (p *alwaysLoadedPolicy) Tick(int, []trace.FuncCount) {}
func (p *alwaysLoadedPolicy) Loaded(f trace.FuncID) bool  { return true }
func (p *alwaysLoadedPolicy) LoadedCount() int            { return p.n }

// neverLoadedPolicy loads nothing, ever: every invocation is a cold start,
// zero waste. (A real platform would load on demand and unload immediately;
// with slot-grained accounting that is "loaded only during invoked slots".)
type neverLoadedPolicy struct{}

func (neverLoadedPolicy) Name() string                { return "never-loaded" }
func (neverLoadedPolicy) Train(*trace.Trace)          {}
func (neverLoadedPolicy) Tick(int, []trace.FuncCount) {}
func (neverLoadedPolicy) Loaded(trace.FuncID) bool    { return false }
func (neverLoadedPolicy) LoadedCount() int            { return 0 }

// onDemandPolicy mimics load-on-invoke + instant eviction: loaded exactly
// during invoked slots.
type onDemandPolicy struct {
	loaded map[trace.FuncID]bool
}

func newOnDemand() *onDemandPolicy { return &onDemandPolicy{loaded: map[trace.FuncID]bool{}} }

func (p *onDemandPolicy) Name() string       { return "on-demand" }
func (p *onDemandPolicy) Train(*trace.Trace) {}
func (p *onDemandPolicy) Tick(t int, invs []trace.FuncCount) {
	p.loaded = make(map[trace.FuncID]bool, len(invs))
	for _, fc := range invs {
		p.loaded[fc.Func] = true
	}
}
func (p *onDemandPolicy) Loaded(f trace.FuncID) bool { return p.loaded[f] }
func (p *onDemandPolicy) LoadedCount() int           { return len(p.loaded) }

// taggedPolicy tags every function "tagged" to exercise TypeTagger capture.
type taggedPolicy struct{ neverLoadedPolicy }

func (taggedPolicy) TypeOf(trace.FuncID) string { return "tagged" }

func tinyTrace() *trace.Trace {
	tr := trace.NewTrace(6)
	// f0: invoked at slots 0, 2, 3 (3 invoked slots, 5 requests)
	tr.AddFunction("f0", "a", "u", trace.TriggerHTTP,
		[]trace.Event{{Slot: 0, Count: 2}, {Slot: 2, Count: 1}, {Slot: 3, Count: 2}})
	// f1: invoked at slot 5 only
	tr.AddFunction("f1", "a", "u", trace.TriggerTimer, []trace.Event{{Slot: 5, Count: 1}})
	// f2: never invoked
	tr.AddFunction("f2", "b", "v", trace.TriggerQueue, nil)
	return tr
}

func TestRunNeverLoaded(t *testing.T) {
	tr := tinyTrace()
	res, err := Run(neverLoadedPolicy{}, nil, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalColdStarts != 4 {
		t.Errorf("cold starts = %d, want 4 (every invoked slot)", res.TotalColdStarts)
	}
	if res.TotalWMT != 0 || res.TotalMemory != 0 {
		t.Errorf("WMT/memory = %d/%d, want 0/0", res.TotalWMT, res.TotalMemory)
	}
	if res.PerFunc[0].ColdStartRate() != 1 {
		t.Errorf("f0 CSR = %v, want 1", res.PerFunc[0].ColdStartRate())
	}
	if !res.PerFunc[0].AlwaysCold() {
		t.Error("f0 should be always-cold")
	}
	if res.AlwaysColdFraction() != 1 {
		t.Errorf("always-cold fraction = %v, want 1", res.AlwaysColdFraction())
	}
	if res.WarmFraction() != 0 {
		t.Errorf("warm fraction = %v, want 0", res.WarmFraction())
	}
	if res.TotalInvocations != 6 {
		t.Errorf("total invocations = %d, want 6", res.TotalInvocations)
	}
	if res.GlobalCSR() != 1 {
		t.Errorf("global CSR = %v, want 1", res.GlobalCSR())
	}
}

func TestRunAlwaysLoaded(t *testing.T) {
	tr := tinyTrace()
	res, err := Run(&alwaysLoadedPolicy{n: tr.NumFunctions()}, nil, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalColdStarts != 0 {
		t.Errorf("cold starts = %d, want 0", res.TotalColdStarts)
	}
	// Memory: 3 functions x 6 slots = 18; idle = 18 - 4 invoked pairs = 14.
	if res.TotalMemory != 18 {
		t.Errorf("memory = %d, want 18", res.TotalMemory)
	}
	if res.TotalWMT != 14 {
		t.Errorf("WMT = %d, want 14", res.TotalWMT)
	}
	if res.WarmFraction() != 1 {
		t.Errorf("warm fraction = %v, want 1", res.WarmFraction())
	}
	// f2 never invoked: all 6 slots wasted.
	if res.PerFunc[2].WMTMinutes != 6 {
		t.Errorf("f2 WMT = %d, want 6", res.PerFunc[2].WMTMinutes)
	}
	if res.MaxLoaded != 3 {
		t.Errorf("MaxLoaded = %d, want 3", res.MaxLoaded)
	}
	if got := res.MeanLoaded(); got != 3 {
		t.Errorf("MeanLoaded = %v, want 3", got)
	}
	// EMCR: slots with loads: all 6; invoked fractions: 1/3, 0, 1/3, 1/3, 0, 1/3.
	wantEMCR := (4.0 / 3.0) / 6.0
	if got := res.EMCR(); !almostEqual(got, wantEMCR, 1e-12) {
		t.Errorf("EMCR = %v, want %v", got, wantEMCR)
	}
}

func TestRunOnDemand(t *testing.T) {
	tr := tinyTrace()
	res, err := Run(newOnDemand(), nil, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// First invocation of each active run is cold; f0 at slots 0,2,3: slot 0
	// cold, slot 2 cold (evicted after 0... actually after slot 1 tick the
	// set is empty), slot 3 warm (loaded during slot 2... no: Tick(2) loads
	// f0, so at slot 3 it is loaded -> warm). f1 at 5: cold.
	if res.PerFunc[0].ColdStarts != 2 {
		t.Errorf("f0 cold starts = %d, want 2", res.PerFunc[0].ColdStarts)
	}
	if res.PerFunc[1].ColdStarts != 1 {
		t.Errorf("f1 cold starts = %d, want 1", res.PerFunc[1].ColdStarts)
	}
	// On-demand never wastes: loaded only while invoked.
	if res.TotalWMT != 0 {
		t.Errorf("WMT = %d, want 0", res.TotalWMT)
	}
	if got := res.EMCR(); got != 1 {
		t.Errorf("EMCR = %v, want 1", got)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(neverLoadedPolicy{}, nil, nil, Options{}); err == nil {
		t.Error("nil sim trace should fail")
	}
	tr := tinyTrace()
	other := trace.NewTrace(5)
	other.AddFunction("x", "a", "u", trace.TriggerHTTP, nil)
	if _, err := Run(neverLoadedPolicy{}, other, tr, Options{}); err == nil {
		t.Error("mismatched function counts should fail")
	}
}

func TestRunTypeCapture(t *testing.T) {
	tr := tinyTrace()
	res, err := Run(taggedPolicy{}, nil, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Types) != 3 || res.Types[0] != "tagged" {
		t.Errorf("Types = %v", res.Types)
	}
	meanCSR, meanWMT, counts := res.TypeBreakdown()
	if counts["tagged"] != 3 {
		t.Errorf("counts = %v", counts)
	}
	if meanCSR["tagged"] != 1 {
		t.Errorf("meanCSR = %v", meanCSR)
	}
	if meanWMT["tagged"] != 0 {
		t.Errorf("meanWMT = %v", meanWMT)
	}
}

func TestTypeBreakdownWithoutTagger(t *testing.T) {
	tr := tinyTrace()
	res, err := Run(neverLoadedPolicy{}, nil, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := res.TypeBreakdown()
	if a != nil || b != nil || c != nil {
		t.Error("TypeBreakdown without tagger should be nil")
	}
}

func TestRunAll(t *testing.T) {
	tr := tinyTrace()
	results, err := RunAll([]Policy{neverLoadedPolicy{}, newOnDemand()}, nil, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Policy != "never-loaded" || results[1].Policy != "on-demand" {
		t.Errorf("results = %v", results)
	}
}

func TestQuantileCSRAndCSRs(t *testing.T) {
	tr := tinyTrace()
	res, _ := Run(neverLoadedPolicy{}, nil, tr, Options{})
	csrs := res.CSRs()
	if len(csrs) != 2 { // f2 never invoked is excluded
		t.Errorf("CSRs = %v, want 2 entries", csrs)
	}
	if res.QuantileCSR(0.75) != 1 {
		t.Errorf("Q3-CSR = %v, want 1", res.QuantileCSR(0.75))
	}
}

func TestFuncMetricsEdges(t *testing.T) {
	var m FuncMetrics
	if m.ColdStartRate() != 0 || m.AlwaysCold() {
		t.Error("zero metrics should have CSR 0 and not be always-cold")
	}
	m = FuncMetrics{WMTMinutes: 7}
	if m.WMTRatio() != 7 {
		t.Errorf("WMTRatio uninvoked = %v, want raw WMT", m.WMTRatio())
	}
	var r Result
	if r.MeanLoaded() != 0 || r.EMCR() != 0 || r.GlobalCSR() != 0 || r.OverheadPerSlot() != 0 {
		t.Error("zero result derived metrics should be 0")
	}
}

// Property: for any policy behaviour, accounting invariants hold:
// cold starts <= invoked slots; WMT + active-loaded pairs == memory.
func TestAccountingInvariantProperty(t *testing.T) {
	f := func(raw []uint8, loadMask []bool) bool {
		slots := 12
		tr := trace.NewTrace(slots)
		var events []trace.Event
		for i, v := range raw {
			events = append(events, trace.Event{Slot: int32(i % slots), Count: int32(v % 3)})
		}
		tr.AddFunction("f0", "a", "u", trace.TriggerHTTP, events)
		tr.AddFunction("f1", "a", "u", trace.TriggerHTTP, nil)
		p := &maskPolicy{mask: loadMask, n: 2}
		res, err := Run(p, nil, tr, Options{})
		if err != nil {
			return false
		}
		if res.TotalColdStarts > res.TotalInvokedSlot {
			return false
		}
		var perFuncCold, perFuncWMT int64
		for _, m := range res.PerFunc {
			perFuncCold += m.ColdStarts
			perFuncWMT += m.WMTMinutes
		}
		return perFuncCold == res.TotalColdStarts && perFuncWMT == res.TotalWMT
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// maskPolicy loads f0 according to a boolean script, one entry per tick.
type maskPolicy struct {
	mask []bool
	n    int
	t    int
	on   bool
}

func (p *maskPolicy) Name() string       { return "mask" }
func (p *maskPolicy) Train(*trace.Trace) {}
func (p *maskPolicy) Tick(t int, _ []trace.FuncCount) {
	if len(p.mask) > 0 {
		p.on = p.mask[t%len(p.mask)]
	}
	p.t = t
}
func (p *maskPolicy) Loaded(f trace.FuncID) bool { return f == 0 && p.on }
func (p *maskPolicy) LoadedCount() int {
	if p.on {
		return 1
	}
	return 0
}

func almostEqual(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}
