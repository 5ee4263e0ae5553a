package sched

import (
	"math/rand"
	"slices"
	"testing"
)

// mapAgenda is the model Agenda is held to: a map from slot to the actions
// scheduled there, with the same per-owner generation rule. It is what the
// deadline-based baselines ran on before the wheel, kept here as the one
// place wheel ≡ map is proven.
type mapAgenda struct {
	bySlot map[int][]mapItem
	seq    []uint32
}

type mapItem struct {
	owner, what int
	seq         uint32
}

func (m *mapAgenda) grow(owners int) {
	for len(m.seq) < owners {
		m.seq = append(m.seq, 0)
	}
}

func (m *mapAgenda) schedule(slot, owner, what int) {
	m.bySlot[slot] = append(m.bySlot[slot], mapItem{owner, what, m.seq[owner]})
}

// drain returns the still-valid (owner, what) pairs at slot, sorted.
func (m *mapAgenda) drain(slot int) [][2]int {
	var fired [][2]int
	for _, it := range m.bySlot[slot] {
		if m.seq[it.owner] == it.seq {
			fired = append(fired, [2]int{it.owner, it.what})
		}
	}
	delete(m.bySlot, slot)
	sortFired(fired)
	return fired
}

// next is the earliest slot in (after, limit] holding any action, stale or
// not, or -1.
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

// runAgendaProgram interprets prog as a sequence of Schedule / Bump / Drain /
// Next / Grow operations against an Agenda of the given ring span and the map
// model, checking every Drain and Next against the model. Time is monotone
// and starts at -1, as in a policy's Train; actions are scheduled from the
// current slot before it drains, as in a policy's Tick; and time advances
// either slot by slot or by jumping to Next, as the Driver's idle skip does.
// Different owners' actions at one slot commute, so a drain is compared as a
// sorted set.
func runAgendaProgram(t testing.TB, span int, prog []byte) {
	arg := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	owners := 1 + arg()%8
	a := NewAgenda(owners, span)
	m := &mapAgenda{bySlot: map[int][]mapItem{}, seq: make([]uint32, owners)}
	now, drained := -1, true

	drain := func() {
		if drained {
			return
		}
		drained = true
		var got [][2]int
		a.Drain(now, func(owner, what int) { got = append(got, [2]int{owner, what}) })
		sortFired(got)
		if want := m.drain(now); !slices.Equal(got, want) {
			t.Fatalf("span %d: Drain(%d) fired %v, model %v", span, now, got, want)
		}
	}
	jump := func(limit int) {
		drain()
		got, want := a.Next(now, limit), m.next(now, limit)
		if got != want {
			t.Fatalf("span %d: Next(%d, %d) = %d, model %d", span, now, limit, got, want)
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
			a.Schedule(now, now+delta, owner, what)
			m.schedule(now+delta, owner, what)
		case 4:
			owner := arg() % owners
			a.Bump(owner)
			m.seq[owner]++
		case 5:
			drain()
		case 6:
			drain()
			now, drained = now+1, false
		case 7:
			jump(now + 1 + 3*arg())
		case 8:
			owners += 1 + arg()%3
			a.Grow(owners)
			m.grow(owners)
			if a.Owners() != owners {
				t.Fatalf("Owners() = %d after Grow(%d)", a.Owners(), owners)
			}
		}
	}
	// Everything still scheduled must come out, in order, and nothing else.
	for len(m.bySlot) > 0 {
		jump(now + 1<<20)
	}
	drain()
	if n := a.Next(now, now+1<<20); n != -1 {
		t.Fatalf("span %d: Next = %d on an agenda the model says is empty", span, n)
	}
}

// agendaSpans are the ring spans the policies build their agendas with —
// FixedKeepAlive(10)'s keepAlive+2, and 266, which both
// DefaultHybridConfig().spanSlots() and DefaultDefuseConfig().spanSlots()
// come to — plus the degenerate and a non-power-of-two small one.
var agendaSpans = []int{1, 6, 12, 266}

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
