package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

func TestSettingsValidate(t *testing.T) {
	s := DefaultSettings()
	if err := s.Validate(); err != nil {
		t.Errorf("default settings invalid: %v", err)
	}
	bad := s
	bad.Functions = 0
	if bad.Validate() == nil {
		t.Error("zero functions should fail")
	}
	bad = s
	bad.TrainDays = s.Days
	if bad.Validate() == nil {
		t.Error("train == total should fail")
	}
}

func TestBuildWorkload(t *testing.T) {
	s := QuickSettings()
	full, train, simTr, err := BuildWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	if full.Slots != s.Days*1440 {
		t.Errorf("full slots = %d", full.Slots)
	}
	if train.Slots != s.TrainDays*1440 || simTr.Slots != (s.Days-s.TrainDays)*1440 {
		t.Errorf("split = %d/%d", train.Slots, simTr.Slots)
	}
	if full.NumFunctions() != s.Functions {
		t.Errorf("functions = %d", full.NumFunctions())
	}
}

func TestComparisonShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison is slow")
	}
	w := mustOpen(t, QuickSettings())
	c, err := w.Comparison(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Results) != 6 {
		t.Fatalf("results = %d, want 6", len(c.Results))
	}
	if c.Results[0].Policy != "SPES" {
		t.Errorf("first result = %s", c.Results[0].Policy)
	}

	// Headline shapes that hold at any scale. (The exact SPES-vs-Defuse
	// Q3 margin is scale-sensitive, so it is not asserted.)
	spesQ3 := c.SPES.QuantileCSR(0.75)
	for _, r := range c.Results[1:] {
		switch r.Policy {
		case "Fixed-10min", "FaaSCache", "Hybrid-Function":
			if q3 := r.QuantileCSR(0.75); q3 < spesQ3 {
				t.Errorf("%s Q3-CSR %.4f beats SPES %.4f", r.Policy, q3, spesQ3)
			}
		}
	}

	// SPES types were captured for the per-type figures.
	if c.SPES.Types == nil {
		t.Error("SPES result missing type tags")
	}

	// Memory shape: SPES uses less memory and wastes less than the
	// histogram-driven baselines.
	spesMem := c.SPES.MeanLoaded()
	for _, r := range c.Results[1:] {
		switch r.Policy {
		case "Defuse", "Hybrid-Function", "Hybrid-Application":
			if r.MeanLoaded() < spesMem {
				t.Errorf("%s memory %.1f below SPES %.1f (paper shape: above)",
					r.Policy, r.MeanLoaded(), spesMem)
			}
			if r.TotalWMT < c.SPES.TotalWMT {
				t.Errorf("%s WMT %d below SPES %d (paper shape: above)",
					r.Policy, r.TotalWMT, c.SPES.TotalWMT)
			}
		}
	}

	// EMCR shape: SPES allocates memory the most effectively among
	// predictive policies (fixed keep-alive can exceed it only by being
	// cold on everything idle).
	for _, r := range c.Results[1:] {
		switch r.Policy {
		case "Defuse", "Hybrid-Function", "Hybrid-Application":
			if r.EMCR() > c.SPES.EMCR() {
				t.Errorf("%s EMCR %.3f above SPES %.3f", r.Policy, r.EMCR(), c.SPES.EMCR())
			}
		}
	}

	// Per-type shape (Fig. 10/12): unknown and pulsed carry the highest
	// cold-start rates among SPES categories.
	meanCSR, _, counts := c.SPES.TypeBreakdown()
	for _, predictable := range []string{"regular", "appro-regular", "dense", "correlated"} {
		if counts[predictable] == 0 {
			continue
		}
		if meanCSR[predictable] > meanCSR["pulsed"] && counts["pulsed"] > 5 {
			t.Errorf("%s mean CSR %.3f above pulsed %.3f", predictable,
				meanCSR[predictable], meanCSR["pulsed"])
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from the runners' output")

// goldenFigures is every runner's output but the overhead table's, over one
// QuickSettings workload in IDs() order under "===== id =====" headers.
const goldenFigures = "testdata/figures.golden"

// TestAllFigureRunnersProduceOutput holds every figure to the committed
// golden bytes: a change that moves a figure fails here and shows the
// diff in review. Run with -update to re-record after a deliberate move.
func TestAllFigureRunnersProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runners are slow")
	}
	wl := mustOpen(t, QuickSettings())
	var all bytes.Buffer
	for _, id := range IDs() {
		if id == "overhead" {
			continue
		}
		runner, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := runner(&buf, wl); err != nil {
			t.Errorf("figure %s: %v", id, err)
			continue
		}
		if buf.Len() == 0 {
			t.Errorf("figure %s produced no output", id)
		}
		fmt.Fprintf(&all, "===== %s =====\n", id)
		all.Write(buf.Bytes())
	}
	if *update {
		if err := os.WriteFile(goldenFigures, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFigures)
	if err != nil {
		t.Fatal(err)
	}
	if got := all.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("figures differ from %s at line %d (run with -update after a deliberate change):\n got  %q\n want %q", goldenFigures, i+1, g, w)
			}
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown figure should fail")
	}
	ids := IDs()
	if len(ids) != 17 {
		t.Errorf("registry size = %d, want 17", len(ids))
	}
}

func TestFig5MatchesTriggerMix(t *testing.T) {
	var buf bytes.Buffer
	s := QuickSettings()
	s.Functions = 2000
	if err := Fig5(&buf, mustOpen(t, s)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "http") || !strings.Contains(out, "41.19%") {
		t.Errorf("Fig5 output missing expected content:\n%s", out)
	}
}

// TestCORStatsDeterministic: the co-occurrence table draws its negative
// samples from one RNG while walking the apps, so the walk must not follow
// map order — two calls with equal Settings write identical bytes.
func TestCORStatsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := CORStats(&a, mustOpen(t, QuickSettings())); err != nil {
		t.Fatal(err)
	}
	if err := CORStats(&b, mustOpen(t, QuickSettings())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("CORStats differs between two calls with equal Settings:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// mustOpen opens the generated workload of s or fails the test.
func mustOpen(t *testing.T, s Settings) *Workload {
	t.Helper()
	wl, err := Open(s, Input{})
	if err != nil {
		t.Fatal(err)
	}
	return wl
}
