package trace

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestTriggerRoundTrip(t *testing.T) {
	for _, trig := range Triggers() {
		parsed, err := ParseTrigger(trig.String())
		if err != nil {
			t.Fatalf("ParseTrigger(%q): %v", trig.String(), err)
		}
		if parsed != trig {
			t.Errorf("round trip %v -> %v", trig, parsed)
		}
	}
	if _, err := ParseTrigger("nope"); err == nil {
		t.Error("ParseTrigger(nope) should fail")
	}
	if got := Trigger(200).String(); got != "trigger(200)" {
		t.Errorf("unknown trigger String = %q", got)
	}
}

func TestSeriesTotalAndDense(t *testing.T) {
	s := Series{{Slot: 1, Count: 3}, {Slot: 4, Count: 2}}
	if got := s.Total(); got != 5 {
		t.Errorf("Total = %d, want 5", got)
	}
	dense := s.Dense(5)
	want := []int{0, 3, 0, 0, 2}
	if !reflect.DeepEqual(dense, want) {
		t.Errorf("Dense = %v, want %v", dense, want)
	}
	// Events beyond the window are dropped.
	short := s.Dense(3)
	if !reflect.DeepEqual(short, []int{0, 3, 0}) {
		t.Errorf("Dense(3) = %v", short)
	}
}

func TestSeriesWindow(t *testing.T) {
	s := Series{{Slot: 1, Count: 1}, {Slot: 5, Count: 2}, {Slot: 9, Count: 3}}
	w := s.Window(4, 9)
	want := Series{{Slot: 1, Count: 2}}
	if !reflect.DeepEqual(w, want) {
		t.Errorf("Window = %v, want %v", w, want)
	}
	if got := s.Window(6, 6); got != nil {
		t.Errorf("empty window = %v, want nil", got)
	}
	full := s.Window(0, 10)
	if len(full) != 3 || full[0].Slot != 1 {
		t.Errorf("full window = %v", full)
	}
}

func TestSeriesFirstLast(t *testing.T) {
	var empty Series
	if empty.FirstSlot() != -1 || empty.LastSlot() != -1 {
		t.Error("empty series first/last should be -1")
	}
	s := Series{{Slot: 3, Count: 1}, {Slot: 7, Count: 1}}
	if s.FirstSlot() != 3 || s.LastSlot() != 7 {
		t.Errorf("first/last = %d/%d", s.FirstSlot(), s.LastSlot())
	}
}

func TestNormalize(t *testing.T) {
	events := []Event{{Slot: 5, Count: 1}, {Slot: 2, Count: 3}, {Slot: 5, Count: 2}, {Slot: 3, Count: 0}, {Slot: 4, Count: -1}}
	got := normalize(events)
	want := Series{{Slot: 2, Count: 3}, {Slot: 5, Count: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalize = %v, want %v", got, want)
	}
	if got := normalize(nil); got != nil {
		t.Errorf("normalize(nil) = %v", got)
	}
	if got := normalize([]Event{{Slot: 1, Count: 0}}); got != nil {
		t.Errorf("normalize(all-zero) = %v", got)
	}
}

// TestNormalizeSortSkipIsDecided backs normalize's prune: on non-decreasing
// input, sort.Slice moves nothing, not even among equal slots (their counts
// differ here, so a swap would show), at every length its algorithm
// switches strategy on.
func TestNormalizeSortSkipIsDecided(t *testing.T) {
	g := stats.NewRNG(5)
	for _, n := range []int{2, 8, 12, 13, 50, 51, 200, 5000} {
		for rep := 0; rep < 20; rep++ {
			events := make([]Event, n)
			slot := int32(0)
			for i := range events {
				if g.Bool(0.6) { // long runs of one slot
					slot += int32(g.Intn(3))
				}
				events[i] = Event{Slot: slot, Count: int32(i + 1)}
			}
			sorted := append([]Event(nil), events...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].Slot < sorted[j].Slot })
			if !reflect.DeepEqual(sorted, events) {
				t.Fatalf("n=%d: sort.Slice reordered non-decreasing input", n)
			}
		}
	}
}

// normalizeRef is normalize as one sort and one coalesce, neither skipped:
// sort.Slice over the whole input, then the compaction that writes the
// coalesced events over its prefix and leaves the rest of the sorted input
// behind them.
func normalizeRef(events []Event) Series {
	sort.Slice(events, func(i, j int) bool { return events[i].Slot < events[j].Slot })
	out := events[:0]
	for _, e := range events {
		if e.Count <= 0 {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Slot == e.Slot {
			out[n-1].Count += e.Count
			continue
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// TestNormalizeMatchesReference holds normalize to normalizeRef on random
// input: unsorted, sorted and already normal, with duplicate slots and
// non-positive counts. The series must be equal, and so must the input's
// backing array up to its length: a chain follower reads its driver's
// buffer at the pre-normalize length, stale tail included (DESIGN.md
// "Generator layout split"), so what normalize leaves there is part of
// every generated trace.
func TestNormalizeMatchesReference(t *testing.T) {
	g := stats.NewRNG(9)
	for rep := 0; rep < 3000; rep++ {
		events := make([]Event, g.Intn(70))
		span := 1 + g.Intn(90)
		for i := range events {
			events[i] = Event{Slot: int32(g.Intn(span)), Count: int32(g.Intn(6)) - 2}
		}
		switch rep % 3 {
		case 1:
			sort.Slice(events, func(i, j int) bool { return events[i].Slot < events[j].Slot })
		case 2:
			for i := range events {
				events[i] = Event{Slot: int32(3*i + g.Intn(3)), Count: int32(1 + g.Intn(4))}
			}
		}
		got := append([]Event(nil), events...)
		want := append([]Event(nil), events...)
		gs, ws := normalize(got), normalizeRef(want)
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("rep %d: normalize(%v) = %v, reference %v", rep, events, gs, ws)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rep %d: normalize(%v) left %v behind, reference %v", rep, events, got, want)
		}
		if len(gs) > 0 && &gs[0] != &got[0] {
			t.Fatalf("rep %d: normalize returned a copy, not the input's prefix", rep)
		}
	}
}

func TestTraceAddAndSplit(t *testing.T) {
	tr := NewTrace(10)
	a := tr.AddFunction("fa", "app1", "u1", TriggerHTTP, []Event{{Slot: 2, Count: 1}, {Slot: 7, Count: 2}})
	b := tr.AddFunction("fb", "app1", "u1", TriggerTimer, []Event{{Slot: 9, Count: 1}})
	if a != 0 || b != 1 {
		t.Fatalf("ids = %d, %d", a, b)
	}
	if tr.NumFunctions() != 2 {
		t.Fatalf("NumFunctions = %d", tr.NumFunctions())
	}
	if tr.TotalInvocations() != 4 {
		t.Errorf("TotalInvocations = %d, want 4", tr.TotalInvocations())
	}

	train, sim := tr.Split(5)
	if train.Slots != 5 || sim.Slots != 5 {
		t.Fatalf("split slots = %d, %d", train.Slots, sim.Slots)
	}
	if !reflect.DeepEqual(train.Series[a], Series{{Slot: 2, Count: 1}}) {
		t.Errorf("train series a = %v", train.Series[a])
	}
	if !reflect.DeepEqual(sim.Series[a], Series{{Slot: 2, Count: 2}}) {
		t.Errorf("sim series a = %v", sim.Series[a])
	}
	if train.Series[b] != nil {
		t.Errorf("train series b = %v, want empty", train.Series[b])
	}
	if !reflect.DeepEqual(sim.Series[b], Series{{Slot: 4, Count: 1}}) {
		t.Errorf("sim series b = %v", sim.Series[b])
	}
	// Metadata is shared.
	if &train.Functions[0] != &tr.Functions[0] {
		t.Error("split should share function metadata")
	}
}

func TestSplitPanics(t *testing.T) {
	tr := NewTrace(10)
	for _, at := range []int{0, -1, 10, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Split(%d) should panic", at)
				}
			}()
			tr.Split(at)
		}()
	}
}

func TestBuildSlotIndex(t *testing.T) {
	tr := NewTrace(4)
	tr.AddFunction("fa", "a", "u", TriggerHTTP, []Event{{Slot: 1, Count: 2}})
	tr.AddFunction("fb", "a", "u", TriggerHTTP, []Event{{Slot: 1, Count: 1}, {Slot: 3, Count: 4}})
	idx := tr.BuildSlotIndex()
	if len(idx.Invocations) != 4 {
		t.Fatalf("slots = %d", len(idx.Invocations))
	}
	if len(idx.Invocations[0]) != 0 || len(idx.Invocations[2]) != 0 {
		t.Error("unexpected invocations at idle slots")
	}
	want1 := []FuncCount{{Func: 0, Count: 2}, {Func: 1, Count: 1}}
	if !reflect.DeepEqual(idx.Invocations[1], want1) {
		t.Errorf("slot 1 = %v, want %v", idx.Invocations[1], want1)
	}
	want3 := []FuncCount{{Func: 1, Count: 4}}
	if !reflect.DeepEqual(idx.Invocations[3], want3) {
		t.Errorf("slot 3 = %v, want %v", idx.Invocations[3], want3)
	}
}

func TestAppUserMaps(t *testing.T) {
	tr := NewTrace(2)
	tr.AddFunction("f0", "appA", "u1", TriggerHTTP, nil)
	tr.AddFunction("f1", "appA", "u1", TriggerHTTP, nil)
	tr.AddFunction("f2", "appB", "u2", TriggerHTTP, nil)
	apps := tr.AppFunctions()
	if !reflect.DeepEqual(apps["appA"], []FuncID{0, 1}) || !reflect.DeepEqual(apps["appB"], []FuncID{2}) {
		t.Errorf("AppFunctions = %v", apps)
	}
	users := tr.UserFunctions()
	if len(users["u1"]) != 2 || len(users["u2"]) != 1 {
		t.Errorf("UserFunctions = %v", users)
	}
}

// Property: Window(0, Slots) is the identity, and for any bounds —
// inverted ones and ends outside the series too — Between(from, to) is the
// linear filter of the events in [from, to), nil when there are none and
// capacity-clipped, and Window(from, to) is that filter re-based to from.
func TestWindowIdentityProperty(t *testing.T) {
	f := func(raw []uint8, from, to int8) bool {
		var s, in, based Series
		lo, hi := int(from)/2, int(to)/2
		for i, v := range raw {
			if e := (Event{Slot: int32(i), Count: int32(v % 5)}); e.Count > 0 {
				s = append(s, e)
				if i >= lo && i < hi {
					in = append(in, e)
					based = append(based, Event{Slot: e.Slot - int32(lo), Count: e.Count})
				}
			}
		}
		got := s.Between(lo, hi)
		return reflect.DeepEqual(s.Window(0, int32(len(raw)+1)), s) &&
			reflect.DeepEqual(got, in) && cap(got) == len(got) &&
			reflect.DeepEqual(s.Window(int32(lo), int32(hi)), based)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: splitting conserves total invocations.
func TestSplitConservationProperty(t *testing.T) {
	f := func(raw []uint8, cutRaw uint8) bool {
		slots := 20
		tr := NewTrace(slots)
		var events []Event
		for i, v := range raw {
			events = append(events, Event{Slot: int32(i % slots), Count: int32(v % 4)})
		}
		tr.AddFunction("f", "a", "u", TriggerHTTP, events)
		cut := 1 + int(cutRaw)%(slots-1)
		train, sim := tr.Split(cut)
		return train.TotalInvocations()+sim.TotalInvocations() == tr.TotalInvocations()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
