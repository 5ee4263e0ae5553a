// Package sched provides the slot-granularity timing wheel the event-driven
// schedulers share: SPES's provision core and every deadline-based baseline
// (fixed keep-alive, Hybrid, Defuse) schedule their wake-ups through it.
// Every deadline lives in a node of one slab, sized for the owner
// population, so scheduling, cancelling and draining allocate nothing and a
// policy's per-slot cost tracks its number of state transitions rather than
// its function count.
package sched

import "fmt"

// nilNode terminates a chain.
const nilNode = -1

// node is one outstanding deadline: owner*k+i for the owner's i-th action.
// slot is -1 while the node is free.
type node struct {
	next, prev int32
	slot       int32
	what       uint8
	far        bool // linked on the far chain rather than a ring bucket
}

// chain is a doubly linked list of nodes, fired head to tail.
type chain struct{ head, tail int32 }

// Wheel is a power-of-two ring of buckets indexed by slot, each an
// intrusive chain of its deadlines in schedule order, plus one far chain,
// sorted by (slot, schedule order), for deadlines beyond the ring horizon.
// Every owner (a FuncID or a policy-level unit index) has k nodes, so it can
// hold at most k actions at once; Cancel unlinks them, and nothing a
// cancelled deadline leaves behind is ever visited again.
type Wheel struct {
	k        int
	nodes    []node
	ring     []chain
	far      chain
	mask     int
	ringLive int
	farLive  int
}

// NewWheel creates a wheel for owners owners with at most k outstanding
// actions each, whose ring spans at least span slots (rounded up to a power
// of two).
func NewWheel(owners, k, span int) *Wheel {
	size := 1
	for size < span {
		size <<= 1
	}
	w := &Wheel{
		k:     k,
		nodes: make([]node, 0, owners*k),
		ring:  make([]chain, size),
		far:   chain{nilNode, nilNode},
		mask:  size - 1,
	}
	for i := range w.ring {
		w.ring[i] = chain{nilNode, nilNode}
	}
	w.Grow(owners)
	return w
}

// Grow extends the owner space to at least owners entries (for policies that
// discover their population lazily). Outstanding actions are preserved.
func (w *Wheel) Grow(owners int) {
	for len(w.nodes) < owners*w.k {
		w.nodes = append(w.nodes, node{next: nilNode, prev: nilNode, slot: -1})
	}
}

// Schedule links action what for the owner at the given slot, after every
// action already scheduled there. current is the slot most recently drained
// (or being ticked), -1 initially; slot must be strictly greater, and the
// owner must have fewer than k actions outstanding.
func (w *Wheel) Schedule(current, slot, owner, what int) {
	if slot <= current {
		panic(fmt.Sprintf("sched: owner %d scheduled at slot %d, not after current slot %d", owner, slot, current))
	}
	id := int32(owner * w.k)
	for end := id + int32(w.k); w.nodes[id].slot >= 0; {
		if id++; id == end {
			panic(fmt.Sprintf("sched: owner %d already has %d actions outstanding", owner, w.k))
		}
	}
	n := &w.nodes[id]
	n.slot, n.what, n.far = int32(slot), uint8(what), slot-current > w.mask
	if !n.far {
		w.ringLive++
		c := &w.ring[slot&w.mask]
		w.insertAfter(c, c.tail, id)
		return
	}
	w.farLive++
	at := w.far.tail
	for at != nilNode && w.nodes[at].slot > n.slot {
		at = w.nodes[at].prev
	}
	w.insertAfter(&w.far, at, id)
}

// Cancel unlinks every outstanding action of an owner.
func (w *Wheel) Cancel(owner int) {
	for id := owner * w.k; id < (owner+1)*w.k; id++ {
		if w.nodes[id].slot >= 0 {
			w.unlink(int32(id))
		}
	}
}

// Drain unlinks and fires the actions scheduled at slot: the ring bucket's
// in schedule order, then the far chain's. fn may schedule and cancel
// freely: an action it cancels at this slot does not fire, and one it
// schedules lands at a later slot. A deadline found at an earlier slot was
// skipped without being drained, which is a programming error.
func (w *Wheel) Drain(slot int, fn func(owner, what int)) {
	c := &w.ring[slot&w.mask]
	for c.head != nilNode {
		w.fire(c.head, slot, fn)
	}
	for w.far.head != nilNode && int(w.nodes[w.far.head].slot) <= slot {
		w.fire(w.far.head, slot, fn)
	}
}

func (w *Wheel) fire(id int32, slot int, fn func(owner, what int)) {
	n := w.nodes[id]
	if int(n.slot) != slot {
		panic(fmt.Sprintf("sched: draining slot %d met owner %d's deadline at slot %d", slot, int(id)/w.k, n.slot))
	}
	w.unlink(id)
	fn(int(id)/w.k, int(n.what))
}

func (w *Wheel) insertAfter(c *chain, at, id int32) {
	n := &w.nodes[id]
	n.prev = at
	if at == nilNode {
		n.next, c.head = c.head, id
	} else {
		n.next, w.nodes[at].next = w.nodes[at].next, id
	}
	if n.next == nilNode {
		c.tail = id
	} else {
		w.nodes[n.next].prev = id
	}
}

func (w *Wheel) unlink(id int32) {
	n := &w.nodes[id]
	c := &w.far
	if n.far {
		w.farLive--
	} else {
		c = &w.ring[int(n.slot)&w.mask]
		w.ringLive--
	}
	if n.prev == nilNode {
		c.head = n.next
	} else {
		w.nodes[n.prev].next = n.next
	}
	if n.next == nilNode {
		c.tail = n.prev
	} else {
		w.nodes[n.next].prev = n.prev
	}
	*n = node{next: nilNode, prev: nilNode, slot: -1}
}

// Live returns the number of pending actions.
func (w *Wheel) Live() int { return w.ringLive + w.farLive }

// NextOccupied returns the earliest slot in (after, limit] holding a pending
// action, or -1 when there is none; after must be a slot the caller has
// drained (or ticked). It lets callers fast-forward across empty slots: the
// ring is only scanned up to its horizon — a ring action sits at most mask
// slots past the slot it was scheduled from, which is at most after, so
// every non-empty bucket in range holds exactly its own slot's actions —
// and the far side costs one look at the chain's head.
func (w *Wheel) NextOccupied(after, limit int) int {
	best := -1
	if w.ringLive > 0 {
		for s, hi := after+1, min(after+w.mask, limit); s <= hi; s++ {
			if w.ring[s&w.mask].head != nilNode {
				best = s
				break
			}
		}
	}
	if w.farLive > 0 {
		if m := int(w.nodes[w.far.head].slot); m > after && m <= limit && (best < 0 || m < best) {
			best = m
		}
	}
	return best
}
