package trace

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/stats"
)

// splitRef is the reference for Trace.Split: the copying cut, both halves
// built by Series.Window, so the train half owns fresh, exact-size series.
func splitRef(tr *Trace, at int) (train, sim *Trace) {
	train = &Trace{Slots: at, Functions: tr.Functions, Series: make([]Series, len(tr.Series))}
	sim = &Trace{Slots: tr.Slots - at, Functions: tr.Functions, Series: make([]Series, len(tr.Series))}
	for i, s := range tr.Series {
		train.Series[i] = s.Window(0, int32(at))
		sim.Series[i] = s.Window(int32(at), int32(tr.Slots))
	}
	return train, sim
}

// randomSplitCase draws a trace of up to 40 functions over up to 200 slots
// and a split point in (0, Slots). Each series is empty, wholly before the
// split, wholly at or after it, holds an event on the split slot itself, or
// is drawn over every slot; some reach past Slots, which neither half keeps.
func randomSplitCase(g *stats.RNG) (tr *Trace, at int) {
	slots := g.IntBetween(2, 200)
	at = g.IntBetween(1, slots-1)
	tr = NewTrace(slots)
	for f := g.Intn(40); f >= 0; f-- {
		lo, hi := 0, slots+5
		switch g.Intn(5) {
		case 0:
			hi = 0
		case 1:
			hi = at
		case 2:
			lo = at
		}
		var events []Event
		if hi > lo {
			for k := g.Intn(12); k >= 0; k-- {
				events = append(events, Event{Slot: int32(g.IntBetween(lo, hi-1)), Count: int32(1 + g.Intn(4))})
			}
		}
		if g.Intn(4) == 0 {
			events = append(events, Event{Slot: int32(at), Count: 1})
		}
		tr.AddFunction(fmt.Sprintf("f%d", f), "app", "user", TriggerHTTP, events)
	}
	return tr, at
}

// TestSplitMatchesCopyingReference holds Trace.Split to splitRef over random
// traces, and pins what sharing the train half costs nothing in: every train
// series is a prefix of the receiver's own storage with no room to grow, so
// an append to it reallocates and leaves the receiver and the sim half as
// they were.
func TestSplitMatchesCopyingReference(t *testing.T) {
	g := stats.NewRNG(7)
	for c := 0; c < 500; c++ {
		tr, at := randomSplitCase(g)
		wantTrain, wantSim := splitRef(tr, at)
		full := make([]Series, len(tr.Series))
		for i, s := range tr.Series {
			full[i] = append(Series(nil), s...)
		}
		train, sim := tr.Split(at)
		if !reflect.DeepEqual(train, wantTrain) {
			t.Fatalf("case %d (at %d of %d): train half differs from the copying reference", c, at, tr.Slots)
		}
		if !reflect.DeepEqual(sim, wantSim) {
			t.Fatalf("case %d (at %d of %d): sim half differs from the copying reference", c, at, tr.Slots)
		}
		for i, s := range train.Series {
			if cap(s) != len(s) {
				t.Fatalf("case %d f%d: train series has len %d, cap %d", c, i, len(s), cap(s))
			}
			if len(s) > 0 && &s[0] != &tr.Series[i][0] {
				t.Fatalf("case %d f%d: train series is a copy, not the receiver's prefix", c, i)
			}
			_ = append(s, Event{Slot: int32(at), Count: 99})
		}
		if !reflect.DeepEqual(tr.Series, full) {
			t.Fatalf("case %d (at %d): appending to the train half wrote into the receiver", c, at)
		}
		if !reflect.DeepEqual(sim, wantSim) {
			t.Fatalf("case %d (at %d): appending to the train half wrote into the sim half", c, at)
		}
	}
}
