package eqv

import (
	"testing"

	"repro/internal/experiments"
)

// TestCheckReportsAMutant: a harness that compared nothing would pass every
// matrix. One wrong Loaded answer at one slot must come back as exactly one
// mismatch, under its row's label, beside a clean row that reports none.
func TestCheckReportsAMutant(t *testing.T) {
	s := experiments.DefaultSettings()
	s.Functions, s.Days, s.TrainDays = 100, 3, 2
	fixed := Fixed()
	fixed.Oracle = FlipLoaded(fixed.New, 30)
	rep, err := Check(Matrix{Workload: Workload{Settings: s}, Rows: []Row{{Policies: []Policy{fixed}, Ref: Event, Engines: []Engine{Scan, Oracle}}}})
	if err != nil || len(rep.Mismatches) != 1 || rep.Mismatches[0].Label != "seed 1: FixedKeepAlive: oracle vs event" {
		t.Fatalf("Check: %v, mismatches %v, want one, from the oracle row", err, rep)
	}
}

// TestCheckRejectsUnopenableStores: a store reopened unbuilt, or a trace over two seeds, errs.
func TestCheckRejectsUnopenableStores(t *testing.T) {
	w := Workload{Settings: experiments.DefaultSettings(), Trace: "../../testdata/azure_sample.csv"}
	w.Settings.TrainDays = 3
	warm := Matrix{Workload: w, Rows: []Row{{Policies: []Policy{Fixed()}, Ref: StoreWarm(4)}}}
	w.Seeds = []int64{1, 2}
	for _, m := range []Matrix{warm, {Workload: w}} {
		if _, err := Check(m); err == nil {
			t.Errorf("Check(%+v) passed, want an error", m.Workload)
		}
	}
}
