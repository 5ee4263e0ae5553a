package sched

// refAgenda is the reference Wheel is held to in firing order: the
// append-bucket wheel with per-owner lazy invalidation that the policies ran
// on before the intrusive slab. Each ring bucket grows its own event slice,
// deadlines beyond the ring horizon go to a map keyed by slot, and Bump
// abandons an owner's outstanding events by advancing its generation; a
// drain fires the bucket's still-valid events in schedule order, then the
// overflow entries at the slot in schedule order. Nothing here is reused
// by production.
type refAgenda struct {
	ring     [][]refEvent
	mask     int
	overflow map[int][]refEvent
	seq      []uint32 // current generation per owner
}

type refEvent struct {
	owner, slot int32
	seq         uint32
	what        uint8
}

func newRefAgenda(owners, span int) *refAgenda {
	size := 1
	for size < span {
		size <<= 1
	}
	return &refAgenda{
		ring:     make([][]refEvent, size),
		mask:     size - 1,
		overflow: make(map[int][]refEvent),
		seq:      make([]uint32, owners),
	}
}

func (a *refAgenda) grow(owners int) {
	for len(a.seq) < owners {
		a.seq = append(a.seq, 0)
	}
}

func (a *refAgenda) bump(owner int) { a.seq[owner]++ }

func (a *refAgenda) schedule(current, slot, owner, what int) {
	ev := refEvent{owner: int32(owner), slot: int32(slot), seq: a.seq[owner], what: uint8(what)}
	if slot-current <= a.mask {
		a.ring[slot&a.mask] = append(a.ring[slot&a.mask], ev)
		return
	}
	a.overflow[slot] = append(a.overflow[slot], ev)
}

// drain fires the still-valid events at slot in the order the wheel fired
// them. A ring event a later revolution shares the bucket with is kept; one
// whose exact slot was never drained is dropped.
func (a *refAgenda) drain(slot int, fn func(owner, what int)) {
	idx := slot & a.mask
	items := a.ring[idx]
	kept := items[:0]
	for _, ev := range items {
		if d := int(ev.slot) - slot; d > 0 && d <= a.mask+1 {
			kept = append(kept, ev)
			continue
		}
		if int(ev.slot) == slot && a.seq[ev.owner] == ev.seq {
			fn(int(ev.owner), int(ev.what))
		}
	}
	a.ring[idx] = kept
	items = a.overflow[slot]
	delete(a.overflow, slot)
	for _, ev := range items {
		if a.seq[ev.owner] == ev.seq {
			fn(int(ev.owner), int(ev.what))
		}
	}
}
