package sim

import (
	"strings"
	"testing"
	"time"
)

// TestResultDiff: Diff is silent exactly when two results agree in every
// field but Overhead, and otherwise names what moved.
func TestResultDiff(t *testing.T) {
	base := func() *Result {
		return &Result{
			Policy: "p", Slots: 10, Functions: 2,
			PerFunc:         []FuncMetrics{{Invocations: 3, InvokedSlot: 2, ColdStarts: 1}, {WMTMinutes: 4}},
			TotalColdStarts: 1, TotalWMT: 4, MaxLoaded: 2, EMCRSum: 0.5, EMCRSlots: 1,
			Types: []string{"regular", "unknown"},
		}
	}
	want, same := base(), base()
	same.Overhead = 3 * time.Second
	if d := want.Diff(same); d != "" {
		t.Errorf("results differing only in Overhead: Diff = %q, want none", d)
	}
	for name, c := range map[string]struct {
		change func(*Result)
		shows  string
	}{
		"total":    {func(r *Result) { r.TotalWMT = 5 }, "wmt=5"},
		"emcr":     {func(r *Result) { r.EMCRSum = 0.25 }, "emcr=0.25/1"},
		"policy":   {func(r *Result) { r.Policy = "q" }, "got: q,"},
		"per-func": {func(r *Result) { r.PerFunc[1].WMTMinutes = 9 }, "f1 want={"},
		"type":     {func(r *Result) { r.Types[0] = "dense" }, "f0 type want=regular got=dense"},
		"shorter":  {func(r *Result) { r.PerFunc, r.Types = r.PerFunc[:1], nil }, "want: p,"},
	} {
		got := base()
		c.change(got)
		if d := want.Diff(got); !strings.Contains(d, c.shows) {
			t.Errorf("%s: Diff = %q, want it to show %q", name, d, c.shows)
		}
	}
}
