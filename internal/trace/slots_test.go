package trace

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/stats"
)

// slotList is one occupied slot as BySlot yields it.
type slotList struct {
	Slot int
	Invs []FuncCount
}

// bySlotRef is the naive transposer BySlot must equal: every slot of
// [from, to) clipped to [0, Slots), every function in FuncID order, every
// event on that slot.
func bySlotRef(tr *Trace, from, to int) []slotList {
	var out []slotList
	for t := max(from, 0); t < min(to, tr.Slots); t++ {
		var invs []FuncCount
		for f, s := range tr.Series {
			for _, e := range s {
				if int(e.Slot) == t {
					invs = append(invs, FuncCount{Func: FuncID(f), Count: e.Count})
				}
			}
		}
		if len(invs) > 0 {
			out = append(out, slotList{t, invs})
		}
	}
	return out
}

// collectBySlot copies out what BySlot yields; the yielded slices are only
// valid until the next iteration.
func collectBySlot(tr *Trace, from, to int) []slotList {
	var out []slotList
	for t, invs := range tr.BySlot(from, to) {
		out = append(out, slotList{t, append([]FuncCount(nil), invs...)})
	}
	return out
}

// randomSlotCase draws a trace whose length sits on, just off, or well
// away from a chunk boundary, of up to 40 functions. A series is empty,
// drawn over every slot, dense around chunk edges, packed into one late
// chunk (so the cursor must jump a gap of whole chunks), a single event,
// or reaches past Slots; a few start at a negative slot, which only a
// trace built outside AddFunction's callers can hold and the cursor skips.
func randomSlotCase(g *stats.RNG) *Trace {
	lengths := []int{1, slotChunk - 1, slotChunk, slotChunk + 1, 2 * slotChunk, 3*slotChunk + 7, g.IntBetween(1, 8*slotChunk)}
	slots := lengths[g.Intn(len(lengths))]
	tr := NewTrace(slots)
	for f := g.Intn(40); f >= 0; f-- {
		var events []Event
		add := func(slot int) { events = append(events, Event{Slot: int32(slot), Count: int32(1 + g.Intn(4))}) }
		switch g.Intn(7) {
		case 0: // empty
		case 1:
			for k := 0; k < slots; k++ {
				if g.Intn(2) == 0 {
					add(k)
				}
			}
		case 2:
			for c := 0; c <= slots; c += slotChunk {
				for _, d := range []int{-1, 0, 1} {
					if c+d >= 0 && g.Intn(2) == 0 {
						add(c + d)
					}
				}
			}
		case 3:
			base := slots - slots%slotChunk
			for k := g.Intn(6); k >= 0; k-- {
				add(base + g.Intn(slotChunk))
			}
		case 4:
			add(g.Intn(slots))
		case 5:
			for k := g.Intn(12); k >= 0; k-- {
				add(g.IntBetween(0, slots+2*slotChunk))
			}
		case 6:
			add(-1 - g.Intn(3))
			add(g.Intn(slots))
		}
		tr.AddFunction(fmt.Sprintf("f%d", f), "app", "user", TriggerHTTP, events)
	}
	return tr
}

// TestBySlotMatchesNaiveTransposer holds the chunked cursor to the naive
// transposer over random traces and windows: the whole trace, windows that
// start and end inside, on and past chunk edges, past Slots, negative, and
// empty.
func TestBySlotMatchesNaiveTransposer(t *testing.T) {
	g := stats.NewRNG(11)
	for c := 0; c < 400; c++ {
		tr := randomSlotCase(g)
		windows := [][2]int{
			{0, tr.Slots},
			{-5, tr.Slots + 100},
			{g.Intn(tr.Slots + 1), tr.Slots},
			{0, g.Intn(tr.Slots + 1)},
			{slotChunk - 1, slotChunk + 1},
			{tr.Slots, tr.Slots + 10},
			{tr.Slots / 2, tr.Slots / 3},
		}
		for _, w := range windows {
			got, want := collectBySlot(tr, w[0], w[1]), bySlotRef(tr, w[0], w[1])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d (%d functions, %d slots), window [%d, %d):\ngot  %v\nwant %v",
					c, tr.NumFunctions(), tr.Slots, w[0], w[1], got, want)
			}
		}
	}
}

// TestBySlotStopsEarly checks that breaking out of the loop ends the
// iteration, inside a chunk and on its last slot.
func TestBySlotStopsEarly(t *testing.T) {
	tr := NewTrace(3 * slotChunk)
	var events []Event
	for s := 0; s < tr.Slots; s++ {
		events = append(events, Event{Slot: int32(s), Count: 1})
	}
	tr.AddFunction("f", "app", "user", TriggerHTTP, events)
	for _, stop := range []int{0, 5, slotChunk - 1, slotChunk} {
		last := -1
		for s := range tr.BySlot(0, tr.Slots) {
			last = s
			if s == stop {
				break
			}
		}
		if last != stop {
			t.Errorf("break at slot %d: the loop ran to slot %d", stop, last)
		}
	}
}

// TestBuildSlotIndexCollectsBySlot checks the collector: every slot's list
// is the naive transposer's, and an idle slot's is empty.
func TestBuildSlotIndexCollectsBySlot(t *testing.T) {
	g := stats.NewRNG(12)
	for c := 0; c < 100; c++ {
		tr := randomSlotCase(g)
		idx := tr.BuildSlotIndex()
		if len(idx.Invocations) != tr.Slots {
			t.Fatalf("case %d: %d slot lists for %d slots", c, len(idx.Invocations), tr.Slots)
		}
		want := make([][]FuncCount, tr.Slots)
		for _, sl := range bySlotRef(tr, 0, tr.Slots) {
			want[sl.Slot] = sl.Invs
		}
		for s := range want {
			if !reflect.DeepEqual(idx.Invocations[s], want[s]) {
				t.Fatalf("case %d slot %d: %v, want %v", c, s, idx.Invocations[s], want[s])
			}
		}
	}
}
