package sim

import (
	"slices"
	"testing"

	"repro/internal/trace"
)

func TestLoadedSet(t *testing.T) {
	var s LoadedSet
	s.Reset(3)
	if s.Loaded(0) || s.LoadedCount() != 0 || s.PendingDeltas() != 0 {
		t.Fatal("fresh set not empty")
	}
	s.Load(1)
	s.Load(1) // idempotent
	if !s.Loaded(1) || s.LoadedCount() != 1 {
		t.Errorf("after Load: loaded=%v count=%d", s.Loaded(1), s.LoadedCount())
	}
	s.Unload(1)
	s.Unload(1) // idempotent
	if s.Loaded(1) || s.LoadedCount() != 0 {
		t.Errorf("after Unload: loaded=%v count=%d", s.Loaded(1), s.LoadedCount())
	}
	s.Grow(5)
	s.Load(4)
	if !s.Loaded(4) || s.Loaded(3) || s.LoadedCount() != 1 {
		t.Errorf("after Grow and Load: loaded(3)=%v loaded(4)=%v count=%d", s.Loaded(3), s.Loaded(4), s.LoadedCount())
	}
}

// TestLoadedSetFlipLog holds the log to the sim.LoadDeltaTracker contract:
// one entry per actual flip, in the order the flips happened, and a reset on
// every take.
func TestLoadedSetFlipLog(t *testing.T) {
	var s LoadedSet
	if d, ok := s.TakeLoadDeltas(); !ok || len(d) != 0 {
		t.Fatalf("zero set: TakeLoadDeltas = %v, %v; want no flips, true", d, ok)
	}
	s.Reset(4)
	s.Load(2)
	s.Load(2) // repeated Load: no flip
	s.Load(0)
	s.Unload(2)
	s.Unload(2) // repeated Unload: no flip
	s.Unload(3) // never loaded: no flip
	s.Load(2)
	if n := s.PendingDeltas(); n != 4 {
		t.Errorf("PendingDeltas = %d, want 4", n)
	}
	want := []trace.FuncID{2, 0, 2, 2}
	if d, ok := s.TakeLoadDeltas(); !ok || !slices.Equal(d, want) {
		t.Errorf("TakeLoadDeltas = %v, %v; want %v, true", d, ok, want)
	}
	if d, _ := s.TakeLoadDeltas(); len(d) != 0 || s.PendingDeltas() != 0 {
		t.Errorf("second TakeLoadDeltas = %v; the take must reset the log", d)
	}

	s.Unload(0)
	s.Load(1)
	s.Reset(2)
	if d, _ := s.TakeLoadDeltas(); len(d) != 0 || s.LoadedCount() != 0 || s.Loaded(1) {
		t.Errorf("after Reset: deltas %v, count %d, loaded(1)=%v; Reset must drop the log and the set",
			d, s.LoadedCount(), s.Loaded(1))
	}
}
