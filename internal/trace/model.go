// Package trace models serverless invocation workloads: function metadata
// (trigger type, owning application and user), per-minute invocation series,
// train/simulation splitting, CSV I/O compatible with the Microsoft Azure
// Functions 2019 trace schema, app/user-closed population sharding
// (PartitionFunctions), and a columnar on-disk shard store (IngestCSV,
// Store, StoreSource) so real traces are parsed once and simulated many
// times at O(functions/shards) residency.
//
// The real Azure trace is not redistributable, so the package also provides
// a calibrated synthetic generator (generator.go) that reproduces the
// trace's published statistics; see DESIGN.md for the substitution argument.
package trace

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
)

// Trigger enumerates the Azure Functions trigger types the paper's Figure 5
// reports.
type Trigger uint8

// Trigger values, in the order the paper's Figure 5 lists them.
const (
	TriggerHTTP Trigger = iota
	TriggerTimer
	TriggerQueue
	TriggerOrchestration
	TriggerEvent
	TriggerStorage
	TriggerOthers
	TriggerCombination // more than one trigger type bound to one function
	numTriggers
)

var triggerNames = [...]string{
	TriggerHTTP:          "http",
	TriggerTimer:         "timer",
	TriggerQueue:         "queue",
	TriggerOrchestration: "orchestration",
	TriggerEvent:         "event",
	TriggerStorage:       "storage",
	TriggerOthers:        "others",
	TriggerCombination:   "combination",
}

// String returns the trace-file spelling of the trigger.
func (t Trigger) String() string {
	if int(t) < len(triggerNames) {
		return triggerNames[t]
	}
	return fmt.Sprintf("trigger(%d)", uint8(t))
}

// ParseTrigger converts a trace-file trigger spelling back to a Trigger.
func ParseTrigger(s string) (Trigger, error) {
	for i, name := range triggerNames {
		if name == s {
			return Trigger(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown trigger %q", s)
}

// Triggers returns all trigger values in display order.
func Triggers() []Trigger {
	out := make([]Trigger, numTriggers)
	for i := range out {
		out[i] = Trigger(i)
	}
	return out
}

// FuncID identifies a function within a Trace. IDs are dense indices so
// policies can use slice-backed state keyed by FuncID.
type FuncID int32

// Function carries the per-function metadata the Azure trace exposes: the
// anonymized owner/user, application, function hash, and trigger type.
type Function struct {
	ID      FuncID
	Name    string // anonymized function hash
	App     string // anonymized application id
	User    string // anonymized owner id
	Trigger Trigger
}

// Event is one sparse invocation observation: Count invocations at Slot.
type Event struct {
	Slot  int32
	Count int32
}

// Series is a sparse per-minute invocation series: events sorted by slot,
// holding only slots with at least one invocation.
type Series []Event

// Total returns the series' total invocation count.
func (s Series) Total() int64 {
	var t int64
	for _, e := range s {
		t += int64(e.Count)
	}
	return t
}

// Dense expands the series into a dense per-slot count vector of length
// slots. Events at or beyond slots are dropped.
func (s Series) Dense(slots int) []int {
	out := make([]int, slots)
	for _, e := range s {
		if int(e.Slot) < slots {
			out[e.Slot] += int(e.Count)
		}
	}
	return out
}

// Window returns a copy of the sub-series with slots in [from, to),
// re-based so the first slot of the window is 0.
func (s Series) Window(from, to int32) Series {
	in := s.Between(int(from), int(to))
	if in == nil {
		return nil
	}
	out := make(Series, len(in))
	for i, e := range in {
		out[i] = Event{Slot: e.Slot - from, Count: e.Count}
	}
	return out
}

// Between returns the events of s with slots in [from, to) as a
// capacity-clipped view into s, slots unchanged; nil when there are none.
// It is the one bounds search over a series: every window, split and
// suffix is read through it.
func (s Series) Between(from, to int) Series {
	lo, hi := s.eventRange(from, to)
	if lo >= hi {
		return nil
	}
	return s[lo:hi:hi]
}

// Part is a run of one function's events read at a slot base: event e
// stands at slot e.Slot-Base.
type Part struct {
	Events Series
	Base   int32
}

// Parts is one function's events as at most two Part values read in place,
// every slot of the first before every slot of the second. A materialized trace's
// function is its series alone (part 1, at base 0); a view's (Trace.Head)
// is its head events, then the rest. Readers walk both parts in one loop,
//
//	for _, p := range ps {
//		for _, e := range p.Events {
//			slot := e.Slot - p.Base
//
// or index them through Slot, so one read path serves both kinds of trace.
type Parts [2]Part

// Len returns the number of events.
func (ps Parts) Len() int { return len(ps[0].Events) + len(ps[1].Events) }

// Slot returns the slot of event i, counted across both parts.
func (ps Parts) Slot(i int) int32 {
	if n := len(ps[0].Events); i >= n {
		return ps[1].Events[i-n].Slot - ps[1].Base
	}
	return ps[0].Events[i].Slot - ps[0].Base
}

// First returns the first invoked slot, or -1 when there is no event.
func (ps Parts) First() int32 {
	if ps.Len() == 0 {
		return -1
	}
	return ps.Slot(0)
}

// Last returns the last invoked slot, or -1 when there is no event.
func (ps Parts) Last() int32 {
	if ps.Len() == 0 {
		return -1
	}
	return ps.Slot(ps.Len() - 1)
}

// Total returns the total invocation count.
func (ps Parts) Total() int64 { return ps[0].Events.Total() + ps[1].Events.Total() }

// Between returns the events in slots [from, to), slots unchanged, each
// part a capacity-clipped view of its own (Series.Between).
func (ps Parts) Between(from, to int) Parts {
	for i := range ps {
		b := int(ps[i].Base)
		ps[i].Events = ps[i].Events.Between(from+b, to+b)
	}
	return ps
}

// From returns the events at or after slot start, re-based so start reads
// as slot 0.
func (ps Parts) From(start int) Parts {
	for i := range ps {
		ps[i].Events = ps[i].Events.Between(start+int(ps[i].Base), math.MaxInt32)
		ps[i].Base += int32(start)
	}
	return ps
}

// FirstSlot returns the first invoked slot, or -1 when the series is empty.
func (s Series) FirstSlot() int32 {
	if len(s) == 0 {
		return -1
	}
	return s[0].Slot
}

// LastSlot returns the last invoked slot, or -1 when the series is empty.
func (s Series) LastSlot() int32 {
	if len(s) == 0 {
		return -1
	}
	return s[len(s)-1].Slot
}

// normalize sorts events by slot and coalesces duplicates, dropping
// non-positive counts. Generator and CSV ingestion both funnel through this
// so that Series invariants (sorted, positive, unique slots) always hold.
//
// The sort is skipped on non-decreasing input, which most synthesized series
// already are: sort.Slice leaves such input exactly as it is (equal slots
// included), so skipping it cannot change the outcome.
func normalize(events []Event) Series {
	if len(events) == 0 {
		return nil
	}
	if !slices.IsSortedFunc(events, func(a, b Event) int { return cmp.Compare(a.Slot, b.Slot) }) {
		sort.Slice(events, func(i, j int) bool { return events[i].Slot < events[j].Slot })
	}
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

// Trace is a complete workload: function metadata plus one invocation series
// per function, over Slots minutes. Events at or past Slots are outside the
// trace: every reader (Dense, Cursor, the simulators) ignores them. A
// negative slot is malformed; sim.Run refuses a trace that holds one.
//
// A view reads its events in place from other traces' series: function f's
// events are Head[f], read at base HeadBase, then Series[f], read at base
// Base (see Part). Head may be shorter than Series, a function past its end
// having no head events. A materialized trace has neither: Head nil, Base 0.
// Readers that may be handed a view (classify.Categorize, over a retrain
// window) read it through Parts; everything else takes materialized traces.
type Trace struct {
	Slots     int
	Functions []Function
	Series    []Series // indexed by FuncID
	Head      []Series // a view's first parts, indexed by FuncID
	HeadBase  int32
	Base      int32
}

// Parts returns function f's events: Series[f] alone for a materialized
// trace, Head[f] and then Series[f] for a view.
func (tr *Trace) Parts(f FuncID) Parts {
	ps := Parts{1: {Events: tr.Series[f], Base: tr.Base}}
	if int(f) < len(tr.Head) {
		ps[0] = Part{Events: tr.Head[f], Base: tr.HeadBase}
	}
	return ps
}

// NewTrace creates an empty trace spanning slots minutes.
func NewTrace(slots int) *Trace {
	return &Trace{Slots: slots}
}

// AddFunction appends a function with its (possibly unsorted) events and
// returns its assigned FuncID.
func (tr *Trace) AddFunction(name, app, user string, trig Trigger, events []Event) FuncID {
	id := FuncID(len(tr.Functions))
	tr.Functions = append(tr.Functions, Function{
		ID: id, Name: name, App: app, User: user, Trigger: trig,
	})
	tr.Series = append(tr.Series, normalize(events))
	return id
}

// NumFunctions returns the function count.
func (tr *Trace) NumFunctions() int { return len(tr.Functions) }

// TotalInvocations sums invocations across all functions.
func (tr *Trace) TotalInvocations() int64 {
	var t int64
	for _, s := range tr.Series {
		t += s.Total()
	}
	return t
}

// Split cuts the trace at slot `at`: the first return value holds slots
// [0, at) and the second holds [at, Slots), re-based to start at 0. Function
// IDs and metadata are shared (same ordering) so a policy trained on the
// first part can be simulated on the second. It panics when at is outside
// (0, Slots): the 12-day/2-day split is fixed configuration, not data.
//
// The train half shares the receiver's storage instead of copying it: each
// train series is the receiver's prefix before at, capacity-clipped so an
// append reallocates rather than writes into the receiver's tail (nil when
// the prefix is empty). It therefore pins the receiver's whole series
// arrays, sim tails included, for as long as it lives; neither the receiver
// nor the train half may be modified in place. The sim half is a re-based
// copy.
func (tr *Trace) Split(at int) (train, sim *Trace) {
	if at <= 0 || at >= tr.Slots {
		panic(fmt.Sprintf("trace: split point %d outside (0, %d)", at, tr.Slots))
	}
	train = &Trace{Slots: at, Functions: tr.Functions}
	sim = &Trace{Slots: tr.Slots - at, Functions: tr.Functions}
	train.Series = make([]Series, len(tr.Series))
	sim.Series = make([]Series, len(tr.Series))
	for i, s := range tr.Series {
		train.Series[i] = s.Between(0, at)
		sim.Series[i] = s.Window(int32(at), int32(tr.Slots))
	}
	return train, sim
}

// SlotIndex is a whole trace's events grouped by slot, as BuildSlotIndex
// collects them. Invocations[t] lists the (function, count) pairs invoked
// at slot t, ordered by FuncID.
type SlotIndex struct {
	Invocations [][]FuncCount
}

// FuncCount is one function's invocation count within a single slot.
type FuncCount struct {
	Func  FuncID
	Count int32
}

// BuildSlotIndex collects BySlot(0, Slots) into a slot-major index: one
// list per slot (nil when nothing was invoked), all carved out of one
// backing array. Nothing in the simulators uses it — they read a Cursor,
// which holds a chunk or two at a time — so each call builds a fresh
// index.
func (tr *Trace) BuildSlotIndex() *SlotIndex {
	total := 0
	for _, s := range tr.Series {
		lo, hi := s.eventRange(0, tr.Slots)
		total += hi - lo
	}
	backing := make([]FuncCount, 0, total)
	idx := &SlotIndex{Invocations: make([][]FuncCount, tr.Slots)}
	for t, invs := range tr.BySlot(0, tr.Slots) {
		n := len(backing)
		backing = append(backing, invs...)
		idx.Invocations[t] = backing[n:len(backing):len(backing)]
	}
	return idx
}

// eventRange returns the bounds of s's events in slots [from, to),
// searching only when s reaches outside them; lo >= hi when there are none.
func (s Series) eventRange(from, to int) (lo, hi int) {
	cmpSlot := func(e Event, slot int32) int { return cmp.Compare(e.Slot, slot) }
	lo, hi = 0, len(s)
	if len(s) > 0 && int(s[0].Slot) < from {
		lo, _ = slices.BinarySearchFunc(s, int32(from), cmpSlot)
	}
	if len(s) > 0 && int(s[len(s)-1].Slot) >= to {
		hi, _ = slices.BinarySearchFunc(s, int32(to), cmpSlot)
	}
	return lo, hi
}

// slotChunk is how many slots BySlot transposes per pass over the series.
// Each chunk visits every series with events in it twice (count, then
// fill), so the chunk trades its buffer's size against those visits: at 64
// slots the buffer stays near 64 times the mean events per slot, and a
// two-day window takes at most 45 chunks.
const slotChunk = 64

// noEvent marks a series with no event left in a Cursor's window.
const noEvent = math.MaxInt32

// Cursor is the one slot-major transposer: it walks the occupied slots of
// a window in ascending order and transposes them a Chunk at a time, each
// slot's (function, count) pairs FuncID-ascending — the lists
// BuildSlotIndex holds, without building them all. A chunk is a counting
// sort: one pass over the series counts each slot's list, a second writes
// each event into its slot's list. The cursor keeps each series' position
// and next-event slot, so a pass skips a series with nothing in the chunk
// without touching its events, and it starts each chunk at the earliest
// event left, so a gap of whole chunks is never visited. Series must be
// sorted (the Series invariant); events outside the window are skipped. A
// Cursor is not safe for concurrent use, but Fill touches only the cursor
// and the chunk it fills: one goroutine may fill the next chunk while
// another reads the last.
type Cursor struct {
	tr     *Trace
	to     int
	next   int     // the earliest slot with an event left; to once there is none
	events int     // the window's events, for presizing chunk buffers
	window int     // the window's slots
	at     []int32 // at[f]: the slot of series f's next event, or noEvent
	pos    []int32 // pos[f]: that event's index
}

// Cursor returns a cursor over the occupied slots in [from, to), clipped
// to [0, Slots). It allocates O(functions) positions once; filling chunks
// allocates only when a chunk's buffer must grow.
func (tr *Trace) Cursor(from, to int) *Cursor {
	to = min(to, tr.Slots)
	from = min(max(from, 0), to)
	n := len(tr.Series)
	c := &Cursor{tr: tr, to: to, next: to, window: to - from}
	pa := make([]int32, 2*n)
	c.at, c.pos = pa[:n:n], pa[n:]
	for f, s := range tr.Series {
		c.at[f] = noEvent
		if i, hi := s.eventRange(from, to); i < hi {
			c.at[f], c.pos[f] = s[i].Slot, int32(i)
			c.next = min(c.next, int(s[i].Slot))
			c.events += hi - i
		}
	}
	return c
}

// Chunk holds up to a fixed number of consecutive slots transposed by
// Cursor.Fill, in a buffer reused from fill to fill. Its lists are valid
// until the chunk is filled again.
type Chunk struct {
	from, to int
	start    []int32 // start[j], start[j+1] bound slot from+j's list in buf
	fill     []int32 // Fill's write positions, one per slot
	buf      []FuncCount
}

// NewChunks returns n empty chunks of slots (> 0) slots each for c to
// fill. Their buffers are one allocation, presized at a quarter over the
// window's mean chunk, so a steady trace never regrows them and a burst
// grows a chunk's once.
func (c *Cursor) NewChunks(n, slots int) []Chunk {
	chunks := make([]Chunk, n)
	offs := make([]int32, n*(2*slots+1))
	per := 0
	if c.window > 0 {
		per = c.events * slots / c.window * 5 / 4
	}
	buf := make([]FuncCount, n*per)
	for i := range chunks {
		o := offs[i*(2*slots+1):]
		chunks[i].start, chunks[i].fill = o[:slots+1:slots+1], o[slots+1:2*slots+1:2*slots+1]
		chunks[i].buf = buf[i*per : i*per : (i+1)*per]
	}
	return chunks
}

// Span returns the slots [from, to) the last Fill transposed into the
// chunk; from is occupied.
func (ch *Chunk) Span() (from, to int) { return ch.from, ch.to }

// At returns slot t's (function, count) pairs, FuncID-ascending, for t in
// Span: empty when nothing was invoked at t.
func (ch *Chunk) At(t int) []FuncCount {
	lo, hi := ch.start[t-ch.from], ch.start[t-ch.from+1]
	return ch.buf[lo:hi:hi]
}

// Fill transposes the next chunk into ch, one of c's NewChunks: from the
// earliest slot with an event left, as many slots as ch holds, but never
// past the window's end. It reports false, and leaves ch empty, when no
// event is left.
func (c *Cursor) Fill(ch *Chunk) bool {
	c0 := c.next
	c1 := min(c0+len(ch.fill), c.to)
	if c0 >= c1 {
		ch.from, ch.to = c0, c0
		return false
	}
	series, at, pos := c.tr.Series, c.at, c.pos
	start := ch.start[:c1-c0+1]
	clear(start)
	for f, a := range at {
		if int(a) >= c1 {
			continue
		}
		s := series[f]
		for i := int(pos[f]); i < len(s) && int(s[i].Slot) < c1; i++ {
			start[int(s[i].Slot)-c0+1]++
		}
	}
	for j := 1; j < len(start); j++ {
		start[j] += start[j-1]
	}
	n := start[c1-c0]
	buf := slices.Grow(ch.buf[:0], int(n))[:n]
	// Fill in FuncID order, so each slot's list comes out sorted, and move
	// every series the chunk reached to its next event in the window.
	fill := ch.fill[:c1-c0]
	copy(fill, start)
	next := c.to
	for f, a := range at {
		if int(a) >= c1 {
			next = min(next, int(a))
			continue
		}
		s := series[f]
		i := int(pos[f])
		for ; i < len(s) && int(s[i].Slot) < c1; i++ {
			j := int(s[i].Slot) - c0
			buf[fill[j]] = FuncCount{Func: FuncID(f), Count: s[i].Count}
			fill[j]++
		}
		if i < len(s) && int(s[i].Slot) < c.to {
			at[f], pos[f] = s[i].Slot, int32(i)
			next = min(next, int(s[i].Slot))
		} else {
			at[f] = noEvent
		}
	}
	c.next = next
	ch.from, ch.to, ch.buf = c0, c1, buf
	return true
}

// BySlot iterates the occupied slots in [from, to), clipped to [0, Slots),
// in ascending order, yielding each with its (function, count) pairs
// FuncID-ascending. Slots without invocations are not yielded. It is a
// Cursor filling one slotChunk-slot Chunk, so a whole iteration allocates
// O(functions) positions plus the busiest chunk's events. A yielded slice
// is valid until the next iteration: a caller that keeps the pairs must
// copy them.
func (tr *Trace) BySlot(from, to int) iter.Seq2[int, []FuncCount] {
	return func(yield func(int, []FuncCount) bool) {
		c := tr.Cursor(from, to)
		ch := &c.NewChunks(1, slotChunk)[0]
		for c.Fill(ch) {
			c0, c1 := ch.Span()
			for t := c0; t < c1; t++ {
				if invs := ch.At(t); len(invs) > 0 && !yield(t, invs) {
					return
				}
			}
		}
	}
}

// AppFunctions returns a map from application id to the IDs of its
// functions, each list ordered by FuncID.
func (tr *Trace) AppFunctions() map[string][]FuncID {
	out := make(map[string][]FuncID)
	for _, f := range tr.Functions {
		out[f.App] = append(out[f.App], f.ID)
	}
	return out
}

// UserFunctions returns a map from user id to the IDs of their functions.
func (tr *Trace) UserFunctions() map[string][]FuncID {
	out := make(map[string][]FuncID)
	for _, f := range tr.Functions {
		out[f.User] = append(out[f.User], f.ID)
	}
	return out
}
