package sched

import (
	"reflect"
	"strings"
	"testing"
)

type hit struct{ owner, what int }

func collect(w *Wheel, slot int) []hit {
	var out []hit
	w.Drain(slot, func(owner, what int) { out = append(out, hit{owner, what}) })
	return out
}

func TestWheelRingAndOverflowHorizon(t *testing.T) {
	w := NewWheel(4, 1, 8)
	if w.mask != 7 {
		t.Fatalf("span 8 should produce an 8-slot ring, mask=%d", w.mask)
	}

	// Within the horizon: lands in the ring.
	w.Schedule(0, 7, 1, 0)
	// Exactly one past the horizon: must go on the far chain, otherwise it
	// would share a ring bucket with its own current slot.
	w.Schedule(0, 8, 2, 0)
	// Far future.
	w.Schedule(0, 100, 3, 0)

	if w.ringLive != 1 || w.farLive != 2 || w.Live() != 3 {
		t.Fatalf("ringLive=%d farLive=%d Live=%d, want 1, 2, 3", w.ringLive, w.farLive, w.Live())
	}
	if got := collect(w, 7); !reflect.DeepEqual(got, []hit{{1, 0}}) {
		t.Fatalf("slot 7 drain: %+v", got)
	}
	if got := collect(w, 8); !reflect.DeepEqual(got, []hit{{2, 0}}) {
		t.Fatalf("slot 8 drain: %+v", got)
	}
	if got := collect(w, 100); !reflect.DeepEqual(got, []hit{{3, 0}}) {
		t.Fatalf("slot 100 drain: %+v", got)
	}
	if got := collect(w, 100); got != nil {
		t.Fatalf("double drain fired events: %+v", got)
	}
	if w.Live() != 0 {
		t.Fatalf("Live=%d after draining everything", w.Live())
	}
}

// TestWheelFiringOrder pins the order a slot fires in: its ring bucket in
// schedule order, then its far-chain actions in schedule order, however the
// far chain's slots were inserted.
func TestWheelFiringOrder(t *testing.T) {
	w := NewWheel(8, 1, 8)
	w.Schedule(0, 20, 0, 0) // far
	w.Schedule(0, 30, 1, 0) // far, after 20
	w.Schedule(0, 20, 2, 0) // far, after owner 0 at 20
	w.Schedule(0, 10, 3, 0) // far, head
	w.Schedule(13, 20, 4, 0)
	w.Schedule(13, 20, 5, 0)
	for _, s := range []int{10, 13} {
		w.Drain(s, func(int, int) {})
	}
	want := []hit{{4, 0}, {5, 0}, {0, 0}, {2, 0}}
	if got := collect(w, 20); !reflect.DeepEqual(got, want) {
		t.Fatalf("slot 20 fired %v, want %v", got, want)
	}
	if got := collect(w, 30); !reflect.DeepEqual(got, []hit{{1, 0}}) {
		t.Fatalf("slot 30 fired %v", got)
	}
}

// TestWheelDrainSlotMatching pins what a drain fires: a bucket-sharing
// deadline one revolution ahead is on the far chain and survives the
// earlier slot's drain, and a deadline whose slot was skipped without a
// drain is a programming error the bucket's next drain reports, not a
// deadline silently dropped.
func TestWheelDrainSlotMatching(t *testing.T) {
	w := NewWheel(4, 1, 8)
	// Slots 3 and 11 share ring bucket 3.
	w.Schedule(2, 3, 1, 0)
	w.Schedule(2, 11, 2, 0)

	if got := collect(w, 3); !reflect.DeepEqual(got, []hit{{1, 0}}) {
		t.Fatalf("slot 3 drain must fire only the exact-slot event, got %+v", got)
	}
	if got := collect(w, 11); !reflect.DeepEqual(got, []hit{{2, 0}}) {
		t.Fatalf("slot 11 event must survive the slot 3 drain, got %+v", got)
	}

	// Slot 13 is skipped; draining its bucket-mate 21 must not fire it.
	w.Schedule(11, 13, 3, 0)
	mustPanic(t, "met owner 3's deadline at slot 13", func() { collect(w, 21) })
}

func TestWheelRejectsMisuse(t *testing.T) {
	w := NewWheel(2, 3, 8)
	mustPanic(t, "not after current slot 5", func() { w.Schedule(5, 5, 0, 0) })
	for i := 0; i < 3; i++ {
		w.Schedule(5, 6+i, 1, 0)
	}
	mustPanic(t, "owner 1 already has 3 actions outstanding", func() { w.Schedule(5, 20, 1, 0) })
	w.Cancel(1)
	w.Schedule(5, 20, 1, 0)
	if w.Live() != 1 {
		t.Fatalf("Live=%d after cancelling three and scheduling one", w.Live())
	}
}

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

func TestWheelNextOccupied(t *testing.T) {
	w := NewWheel(4, 1, 8)
	if got := w.NextOccupied(0, 1000); got != -1 {
		t.Fatalf("empty wheel NextOccupied=%d, want -1", got)
	}

	w.Schedule(0, 5, 1, 0)
	w.Schedule(0, 30, 2, 0)

	if got := w.NextOccupied(0, 1000); got != 5 {
		t.Fatalf("NextOccupied(0)=%d, want 5 (ring)", got)
	}
	// Exclusive lower bound, inclusive upper bound.
	if got := w.NextOccupied(5, 1000); got != 30 {
		t.Fatalf("NextOccupied(5)=%d, want 30 (far)", got)
	}
	if got := w.NextOccupied(4, 5); got != 5 {
		t.Fatalf("NextOccupied(4,5)=%d, want 5 (limit inclusive)", got)
	}
	if got := w.NextOccupied(5, 29); got != -1 {
		t.Fatalf("NextOccupied(5,29)=%d, want -1 (limit caps far)", got)
	}

	// After the far head drains, the next far action is the head.
	w.Schedule(0, 40, 3, 0)
	collect(w, 5)
	collect(w, 30)
	if got := w.NextOccupied(30, 1000); got != 40 {
		t.Fatalf("NextOccupied after far head drain=%d, want 40", got)
	}

	// A cancelled deadline is gone: it is never reported.
	w.Cancel(3)
	if got := w.NextOccupied(30, 1000); got != -1 {
		t.Fatalf("NextOccupied=%d after cancelling the only deadline, want -1", got)
	}
}

// TestWheelBatchAdvanceDrainsNothing models the simulator's empty-slot
// batching: fast-forwarding with NextOccupied and draining only the reported
// slots must fire exactly the scheduled events, in slot order.
func TestWheelBatchAdvanceDrainsNothing(t *testing.T) {
	want := []int{3, 9, 10, 200, 511}
	w := NewWheel(512, 1, 16)
	for _, s := range want {
		w.Schedule(0, s, s, 0)
	}
	var fired []int
	limit := 1000
	for u := w.NextOccupied(0, limit); u >= 0; u = w.NextOccupied(u, limit) {
		w.Drain(u, func(owner, _ int) { fired = append(fired, owner) })
	}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("batch advance fired %v, want %v", fired, want)
	}
	if w.Live() != 0 {
		t.Fatalf("wheel not empty after batch advance: Live=%d", w.Live())
	}
}

// TestWheelCancel: a cancelled action never fires, and an owner scheduled
// again after a cancel fires only its new action.
func TestWheelCancel(t *testing.T) {
	w := NewWheel(3, 1, 8)

	w.Schedule(-1, 4, 0, 7)
	w.Schedule(-1, 4, 1, 8)
	w.Cancel(1)

	if got, want := collect(w, 4), []hit{{0, 7}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("drain fired %v, want %v", got, want)
	}

	w.Schedule(4, 9, 1, 8)
	w.Cancel(1)
	w.Schedule(4, 6, 1, 9)
	if got, want := collect(w, 6), []hit{{1, 9}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("post-cancel drain fired %v, want %v", got, want)
	}
	if got := collect(w, 9); got != nil {
		t.Fatalf("cancelled action fired: %v", got)
	}

	// An action fn cancels at the slot being drained does not fire.
	w.Schedule(9, 12, 0, 1)
	w.Schedule(9, 12, 2, 1)
	var got []hit
	w.Drain(12, func(owner, what int) {
		got = append(got, hit{owner, what})
		w.Cancel(2)
	})
	if want := []hit{{0, 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("drain fired %v, want %v", got, want)
	}
}

func TestAgendaGrow(t *testing.T) {
	w := NewWheel(1, 3, 8)
	w.Schedule(-1, 2, 0, 4)
	w.Grow(4)
	if len(w.nodes) != 4*3 {
		t.Fatalf("%d nodes after Grow(4), want 12", len(w.nodes))
	}
	w.Schedule(-1, 3, 3, 5)
	if got, want := collect(w, 2), []hit{{0, 4}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pre-grow action: fired %v, want %v", got, want)
	}
	if got, want := collect(w, 3), []hit{{3, 5}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("grown owner's action: fired %v, want %v", got, want)
	}
}

// TestWheelSteadyStateNoGrowth: a long schedule/cancel/drain steady state,
// ring and far chain both, allocates nothing.
func TestWheelSteadyStateNoGrowth(t *testing.T) {
	w := NewWheel(32, 3, 16)
	tk, fired := 0, 0
	allocs := testing.AllocsPerRun(10_000, func() {
		o := tk & 31
		w.Cancel(o) // its give-up at tk+68 is still pending
		w.Schedule(tk, tk+5, o, 0)
		w.Schedule(tk, tk+20, o, 1)
		w.Schedule(tk, tk+100, o, 2)
		tk++
		w.Drain(tk, func(int, int) { fired++ })
	})
	if allocs != 0 {
		t.Fatalf("steady state allocates %.2f objects per slot", allocs)
	}
	if fired < 19_000 {
		t.Fatalf("only %d actions fired over %d slots", fired, tk)
	}
}
