package experiments

import (
	"bytes"
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

func TestRunComparisonShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison is slow")
	}
	w, err := Open(QuickSettings(), Input{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunComparison(w)
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
	// Q3 margin is scale-sensitive; EXPERIMENTS.md records it at the
	// default scale.)
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

func TestAllFigureRunnersProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runners are slow")
	}
	s := QuickSettings()
	for _, id := range IDs() {
		runner, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := runner(&buf, s); err != nil {
			t.Errorf("figure %s: %v", id, err)
			continue
		}
		if buf.Len() == 0 {
			t.Errorf("figure %s produced no output", id)
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
	if err := Fig5(&buf, s); err != nil {
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
	if err := CORStats(&a, QuickSettings()); err != nil {
		t.Fatal(err)
	}
	if err := CORStats(&b, QuickSettings()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("CORStats differs between two calls with equal Settings:\n%s\nvs\n%s", a.String(), b.String())
	}
}
