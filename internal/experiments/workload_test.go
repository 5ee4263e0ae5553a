package experiments

import (
	"errors"
	"flag"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

const sampleCSV = "../../testdata/azure_sample.csv"

// TestWorkloadDoorsMatchDirectCalls opens a Workload through each of its
// inputs and requires Run to equal the direct sim.Run / sim.RunStreamed
// call it replaces, by Result.Diff.
func TestWorkloadDoorsMatchDirectCalls(t *testing.T) {
	s := QuickSettings()
	s.Functions = 150
	if err := s.ApplyScenario("churn"); err != nil {
		t.Fatal(err)
	}
	_, train, simTr, err := BuildWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	real := QuickSettings()
	real.TrainDays = 3
	f, err := os.Open(sampleCSV)
	if err != nil {
		t.Fatal(err)
	}
	full, err := trace.ReadCSV(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	csvTrain, csvSim := full.Split(real.TrainDays * 1440)
	store := t.TempDir()

	direct := func(tr, sm *trace.Trace) func(*testing.T, sim.Policy) (*sim.Result, error) {
		return func(_ *testing.T, p sim.Policy) (*sim.Result, error) {
			return sim.Run(p, tr, sm, sim.Options{Shards: 1})
		}
	}
	streamed := func(shards int) func(*testing.T, sim.Policy) (*sim.Result, error) {
		return func(t *testing.T, p sim.Policy) (*sim.Result, error) {
			src, err := StreamSource(s, shards)
			if err != nil {
				t.Fatal(err)
			}
			return sim.RunStreamed(p, src, sim.Options{})
		}
	}
	stored := func(t *testing.T, p sim.Policy) (*sim.Result, error) {
		st, err := trace.OpenStore(store)
		if err != nil {
			t.Fatal(err)
		}
		src, err := st.Source(real.TrainDays * 1440)
		if err != nil {
			t.Fatal(err)
		}
		return sim.RunStreamed(p, src, sim.Options{})
	}

	// The cold store row builds what the warm row re-opens: order matters.
	for _, c := range []struct {
		name     string
		settings Settings
		in       Input
		streamed bool
		cold     bool
		direct   func(*testing.T, sim.Policy) (*sim.Result, error)
	}{
		{"generated", s, Input{}, false, false, direct(train, simTr)},
		{"streamed x1", s, Input{Stream: true, Shards: 1}, true, false, streamed(1)},
		{"streamed x4", s, Input{Stream: true, Shards: 4}, true, false, streamed(4)},
		{"csv", real, Input{Trace: sampleCSV}, false, false, direct(csvTrain, csvSim)},
		{"store cold", real, Input{Trace: sampleCSV, Store: store, Shards: 4}, true, true, stored},
		{"store warm", real, Input{Store: store}, true, false, stored},
	} {
		t.Run(c.name, func(t *testing.T) {
			w, err := Open(c.settings, c.in)
			if err != nil {
				t.Fatal(err)
			}
			if (w.Train == nil) != c.streamed {
				t.Errorf("Train nil = %v, want %v", w.Train == nil, c.streamed)
			}
			if (w.Ingested != nil) != c.cold || (w.Store != nil) != (c.in.Store != "") {
				t.Errorf("Ingested = %v, Store = %v: want a cold ingest %v behind a store door %v",
					w.Ingested, w.Store, c.cold, c.in.Store != "")
			}
			if c.in.Trace != "" || c.in.Store != "" {
				if w.Settings.Functions != full.NumFunctions() || w.Settings.Days != full.Slots/1440 {
					t.Errorf("Settings say %d functions x %d days, the trace has %d x %d",
						w.Settings.Functions, w.Settings.Days, full.NumFunctions(), full.Slots/1440)
				}
			}
			for _, mk := range []func() sim.Policy{
				func() sim.Policy { return core.New(s.SPES) },
				func() sim.Policy { return baselines.NewLCS(20) },
			} {
				want, err := c.direct(t, mk())
				if err != nil {
					t.Fatal(err)
				}
				got, err := w.Run(mk(), sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if d := want.Diff(got); d != "" {
					t.Errorf("%s: Run differs from the direct call:\n%s", want.Policy, d)
				}
				all, err := w.RunAll([]sim.Policy{mk()}, sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if d := want.Diff(all[0]); d != "" {
					t.Errorf("%s: RunAll differs from the direct call:\n%s", want.Policy, d)
				}
			}
		})
	}
}

// TestOpenRejectsImpossibleInputs: the generation knobs do not apply to a
// real trace, the split is judged against the trace's real length, and a
// missing store without a CSV to build it from is an error, not a panic.
func TestOpenRejectsImpossibleInputs(t *testing.T) {
	s := QuickSettings()
	s.TrainDays = 3
	drift := s
	drift.Scenario.Name = "drift"
	long := s
	long.Days, long.TrainDays = 30, 20 // valid as generated settings, past the sample's 4 days
	for name, c := range map[string]struct {
		s  Settings
		in Input
	}{
		"stream with trace":   {s, Input{Trace: sampleCSV, Stream: true}},
		"scenario with trace": {drift, Input{Trace: sampleCSV}},
		"stream with store":   {s, Input{Store: t.TempDir(), Stream: true}},
		"split past trace":    {long, Input{Trace: sampleCSV}},
		"missing csv":         {s, Input{Trace: "no-such.csv"}},
		"missing store":       {s, Input{Store: t.TempDir()}},
	} {
		if w, err := Open(c.s, c.in); err == nil {
			t.Errorf("%s: Open succeeded: %+v", name, w.Settings)
		}
	}
	if _, err := Open(s, Input{Store: t.TempDir()}); !errors.Is(err, trace.ErrStoreCorrupt) {
		t.Errorf("missing store: got %v, want errors.Is trace.ErrStoreCorrupt", err)
	}
}

// TestRegisterFlags: defaults come from the receiver, parsed values land in
// it, only the named flags exist, and bad values fail in Validate with a
// message a binary can print before exiting 1 — never in a library panic.
func TestRegisterFlags(t *testing.T) {
	parse := func(s *Settings, names []string, args ...string) error {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		s.RegisterFlags(fs, names...)
		return fs.Parse(args)
	}

	s := QuickSettings()
	if err := parse(&s, nil); err != nil {
		t.Fatal(err)
	}
	if q := QuickSettings(); s.Functions != q.Functions || s.Days != q.Days || s.TrainDays != q.TrainDays || s.Seed != q.Seed || s.TriggerMix != nil {
		t.Errorf("no arguments moved the receiver's defaults: %+v", s)
	}
	if err := parse(&s, nil, "-functions", "40", "-days", "5", "-train-days", "2", "-seed", "9", "-scenario", "drift", "-sparse"); err != nil {
		t.Fatal(err)
	}
	if s.Functions != 40 || s.Days != 5 || s.TrainDays != 2 || s.Seed != 9 || s.Scenario.Name != "drift" || len(s.TriggerMix) == 0 {
		t.Errorf("parsed flags did not land in the receiver: %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
	if sc := mustOpen(t, s).Settings.Scenario; !sc.Enabled() || sc.Seed != 9 {
		t.Errorf("Open left -scenario drift unpositioned or unseeded: %+v", sc)
	}

	if err := parse(&s, []string{"functions", "days"}, "-seed", "3"); err == nil {
		t.Error("-seed parsed although only functions and days were registered")
	}
	for args, want := range map[string]string{
		"-train-days 6":  "train days 6 must fall inside (0, 6)",
		"-train-days 0":  "train days 0 must fall inside (0, 6)",
		"-functions 0":   "positive function count",
		"-days -1":       "positive day count",
		"-scenario nope": `unknown scenario "nope"`,
	} {
		bad := QuickSettings()
		if err := parse(&bad, nil, strings.Fields(args)...); err != nil {
			t.Fatalf("%s: %v", args, err)
		}
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", args, err, want)
		}
		if _, _, _, err := BuildWorkload(bad); err == nil {
			t.Errorf("%s: BuildWorkload accepted what Validate rejects", args)
		}
	}
}

// TestRoster: every name spes-sim -policy documents resolves to a policy of
// its own, and an unknown one is an error that lists the roster.
func TestRoster(t *testing.T) {
	want := []string{"spes", "fixed", "hf", "ha", "defuse", "faascache", "lcs"}
	if got := PolicyNames(); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("PolicyNames() = %v, want %v", got, want)
	}
	seen := map[string]string{}
	for _, name := range want {
		p, err := NewPolicy(name, core.DefaultConfig(), 10)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[p.Name()]; dup {
			t.Errorf("%s and %s both build %s", prev, name, p.Name())
		}
		seen[p.Name()] = name
	}
	if _, err := NewPolicy("nope", core.DefaultConfig(), 10); err == nil || !strings.Contains(err.Error(), "faascache") {
		t.Errorf("unknown policy: got %v, want an error listing the roster", err)
	}
}

// TestPolicyTableProtocol pins the Section V-A1 convention PolicyTable
// states once: SPES first, an optional retrain row, and the capacity
// baselines budgeted at the SPES row's MaxLoaded.
func TestPolicyTableProtocol(t *testing.T) {
	s := QuickSettings()
	s.Functions = 120
	w := mustOpen(t, s)
	rows, err := w.PolicyTable([]string{"fixed"}, []string{"faascache", "lcs"}, 1440, sim.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, r := range rows {
		labels = append(labels, r.Label)
	}
	peak := rows[0].Result.MaxLoaded
	want := []string{"SPES", "Fixed-10min", "SPES+retrain/1440",
		"FaaSCache/cap=" + strconv.Itoa(peak), "LCS/cap=" + strconv.Itoa(peak)}
	if strings.Join(labels, ",") != strings.Join(want, ",") {
		t.Fatalf("labels = %v, want %v", labels, want)
	}
	for _, r := range rows[3:] {
		if r.Result.MaxLoaded > peak {
			t.Errorf("%s peaked at %d instances, above its budget %d", r.Label, r.Result.MaxLoaded, peak)
		}
	}
	if _, err := w.PolicyTable([]string{"nope"}, nil, 0, sim.Options{}); err == nil {
		t.Error("a name off the roster should fail before anything runs")
	}
}
