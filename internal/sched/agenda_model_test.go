package sched

import (
	"math/rand"
	"slices"
	"testing"
)

// mapAgenda is the set-level model Wheel is held to: a map from slot to the
// live actions scheduled there, a cancel deleting the owner's. It is what the
// deadline-based baselines ran on before the wheel, kept here as the one
// place wheel ≡ map is proven; refAgenda (wheel_ref_test.go) is the second
// oracle, for the order a slot fires in.
type mapAgenda struct {
	bySlot map[int][][2]int // slot -> live (owner, what) pairs
	live   []int            // live actions per owner
}

func (m *mapAgenda) grow(owners int) {
	for len(m.live) < owners {
		m.live = append(m.live, 0)
	}
}

func (m *mapAgenda) schedule(slot, owner, what int) {
	m.bySlot[slot] = append(m.bySlot[slot], [2]int{owner, what})
	m.live[owner]++
}

func (m *mapAgenda) cancel(owner int) {
	for s, items := range m.bySlot {
		items = slices.DeleteFunc(items, func(it [2]int) bool { return it[0] == owner })
		if len(items) == 0 {
			delete(m.bySlot, s)
		} else {
			m.bySlot[s] = items
		}
	}
	m.live[owner] = 0
}

// drain returns the (owner, what) pairs at slot, sorted.
func (m *mapAgenda) drain(slot int) [][2]int {
	fired := m.bySlot[slot]
	delete(m.bySlot, slot)
	for _, it := range fired {
		m.live[it[0]]--
	}
	sortFired(fired)
	return fired
}

// next is the earliest slot in (after, limit] holding a live action, or -1.
func (m *mapAgenda) next(after, limit int) int {
	best := -1
	for s := range m.bySlot {
		if s > after && s <= limit && (best < 0 || s < best) {
			best = s
		}
	}
	return best
}

func sortFired(fired [][2]int) {
	slices.SortFunc(fired, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
}

// runAgendaProgram interprets prog as a sequence of Schedule / Cancel / Drain
// / NextOccupied / Grow operations against a Wheel of the given ring span,
// the map model and the reference wheel. Every drain must fire what the
// reference fires in the same order, and the model's set; every
// NextOccupied must equal the model's. Owners get 1 to 3 actions (the
// first byte picks; Hybrid holds 3), and a schedule an owner has no node
// left for is skipped. Time is monotone and starts at -1, as in a policy's
// Train; actions are scheduled from the current slot before it drains, as
// in a policy's Tick; and time advances either slot by slot or by jumping
// to NextOccupied, as the Driver's idle skip does.
func runAgendaProgram(t testing.TB, span int, prog []byte) {
	arg := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	k := 1 + arg()%3
	owners := 1 + arg()%8
	w := NewWheel(owners, k, span)
	ref := newRefAgenda(owners, span)
	m := &mapAgenda{bySlot: map[int][][2]int{}, live: make([]int, owners)}
	now, drained := -1, true

	drain := func() {
		if drained {
			return
		}
		drained = true
		var got, want [][2]int
		w.Drain(now, func(owner, what int) { got = append(got, [2]int{owner, what}) })
		ref.drain(now, func(owner, what int) { want = append(want, [2]int{owner, what}) })
		if !slices.Equal(got, want) {
			t.Fatalf("span %d k %d: Drain(%d) fired %v, reference %v", span, k, now, got, want)
		}
		sortFired(got)
		if model := m.drain(now); !slices.Equal(got, model) {
			t.Fatalf("span %d k %d: Drain(%d) fired %v, model %v", span, k, now, got, model)
		}
	}
	jump := func(limit int) {
		drain()
		got, want := w.NextOccupied(now, limit), m.next(now, limit)
		if got != want {
			t.Fatalf("span %d k %d: NextOccupied(%d, %d) = %d, model %d", span, k, now, limit, got, want)
		}
		now, drained = limit, false
		if got >= 0 {
			now = got
		}
	}

	for len(prog) > 0 {
		switch op := arg() % 9; op {
		case 0, 1, 2, 3: // schedule inside the ring span, or (3) beyond it
			owner, what := arg()%owners, arg()%3
			delta := 1 + arg()%span
			if op == 3 {
				delta = span + 1 + 3*arg()
			}
			if m.live[owner] == k {
				continue
			}
			w.Schedule(now, now+delta, owner, what)
			ref.schedule(now, now+delta, owner, what)
			m.schedule(now+delta, owner, what)
		case 4:
			owner := arg() % owners
			w.Cancel(owner)
			ref.bump(owner)
			m.cancel(owner)
		case 5:
			drain()
		case 6:
			drain()
			now, drained = now+1, false
		case 7:
			jump(now + 1 + 3*arg())
		case 8:
			owners += 1 + arg()%3
			w.Grow(owners)
			ref.grow(owners)
			m.grow(owners)
			if len(w.nodes) != owners*k {
				t.Fatalf("%d nodes after Grow(%d) with k %d", len(w.nodes), owners, k)
			}
		}
		pending := 0
		for _, n := range m.live {
			pending += n
		}
		if w.Live() != pending {
			t.Fatalf("span %d k %d: Live() = %d, model holds %d actions", span, k, w.Live(), pending)
		}
	}
	// Everything still scheduled must come out, in order, and nothing else.
	for len(m.bySlot) > 0 {
		jump(now + 1<<20)
	}
	drain()
	if n := w.NextOccupied(now, now+1<<20); n != -1 || w.Live() != 0 {
		t.Fatalf("span %d k %d: NextOccupied = %d, Live = %d on a wheel the model says is empty", span, k, n, w.Live())
	}
}

// agendaSpans are the ring spans the policies build their wheels with —
// FixedKeepAlive(10)'s keepAlive+2; 266, which both baselines.hybridSpan
// and baselines.defuseSpan come to (TestWheelSpansAreModelChecked in
// internal/baselines reads this list and fails if either leaves it); and
// SPES's 2048 — plus the degenerate, a non-power-of-two small one and two
// powers of two. Keep it a literal of integers: that test parses it.
var agendaSpans = []int{1, 6, 8, 12, 64, 266, 2048}

func TestAgendaMatchesMapModel(t *testing.T) {
	for _, span := range agendaSpans {
		for seed := int64(1); seed <= 20; seed++ {
			prog := make([]byte, 4000)
			rand.New(rand.NewSource(seed)).Read(prog)
			runAgendaProgram(t, span, prog)
		}
	}
}

func FuzzAgenda(f *testing.F) {
	f.Fuzz(func(t *testing.T, span uint16, prog []byte) {
		runAgendaProgram(t, 1+int(span)%300, prog)
	})
}
