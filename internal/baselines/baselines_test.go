package baselines

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// newTestHist builds a 1-minute-bin histogram for unit tests.
func newTestHist(bins int) *stats.Histogram { return stats.NewHistogram(0, 1, bins) }

// Compile-time interface checks.
var (
	_ sim.Policy = (*FixedKeepAlive)(nil)
	_ sim.Policy = (*Hybrid)(nil)
	_ sim.Policy = (*Defuse)(nil)
	_ sim.Policy = (*FaaSCache)(nil)
	_ sim.Policy = (*LCS)(nil)
)

// modelCheckedSpans reads the agendaSpans list of internal/sched's agenda
// model test: the ring spans at which the wheel is checked against its map
// model and the append-bucket reference.
func modelCheckedSpans(t *testing.T) []int {
	t.Helper()
	const path = "../sched/agenda_model_test.go"
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	obj := f.Scope.Lookup("agendaSpans")
	if obj == nil {
		t.Fatalf("%s declares no agendaSpans", path)
	}
	spec := obj.Decl.(*ast.ValueSpec)
	lit, ok := spec.Values[0].(*ast.CompositeLit)
	if !ok {
		t.Fatalf("%s: agendaSpans is not a slice literal", path)
	}
	var spans []int
	for _, e := range lit.Elts {
		b, ok := e.(*ast.BasicLit)
		if !ok || b.Kind != token.INT {
			t.Fatalf("%s: agendaSpans element %T is not an integer literal", path, e)
		}
		n, err := strconv.Atoi(b.Value)
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, n)
	}
	return spans
}

// TestWheelSpansAreModelChecked: the spans Hybrid and Defuse build their
// wheels with are among the spans the wheel's model test runs at, so a
// retuned constant cannot run on an unchecked ring.
func TestWheelSpansAreModelChecked(t *testing.T) {
	spans := modelCheckedSpans(t)
	for _, c := range []struct {
		name string
		span int
	}{{"Hybrid", hybridSpan}, {"Defuse", defuseSpan}} {
		if !slices.Contains(spans, c.span) {
			t.Errorf("%s's wheel span %d is not in sched's agendaSpans %v", c.name, c.span, spans)
		}
	}
}

// TestHistogramGate: a function with 5-9 inter-arrival observations has a
// usable histogram under Hybrid and an unusable one under Defuse, whose
// gate is 10; below 5 neither uses it, from 10 both do.
func TestHistogramGate(t *testing.T) {
	for obs := 4; obs <= 10; obs++ {
		tr := trace.NewTrace(1440)
		var events []trace.Event
		for i := 0; i <= obs; i++ {
			events = append(events, trace.Event{Slot: int32(60 * i), Count: 1})
		}
		tr.AddFunction("f", "app", "u", trace.TriggerTimer, events)

		hf, defuse := NewHybridFunction(), NewDefuse()
		hf.Train(tr)
		defuse.Train(tr)
		got := [2]bool{hf.units[0].usable, defuse.units[0].usable}
		want := [2]bool{obs >= 5, obs >= 10}
		if got != want {
			t.Errorf("%d observations: usable (Hybrid, Defuse) = %v, want %v", obs, got, want)
		}
	}
}
