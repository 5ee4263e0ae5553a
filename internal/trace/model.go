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

// Window returns the sub-series with slots in [from, to), re-based so the
// first slot of the window is 0.
func (s Series) Window(from, to int32) Series {
	lo := sort.Search(len(s), func(i int) bool { return s[i].Slot >= from })
	hi := sort.Search(len(s), func(i int) bool { return s[i].Slot >= to })
	if lo >= hi {
		return nil
	}
	out := make(Series, hi-lo)
	for i, e := range s[lo:hi] {
		out[i] = Event{Slot: e.Slot - from, Count: e.Count}
	}
	return out
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
// trace: every reader (Dense, BySlot, the simulators) ignores them. A
// negative slot is malformed; sim.Run refuses a trace that holds one.
type Trace struct {
	Slots     int
	Functions []Function
	Series    []Series // indexed by FuncID
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
		k := sort.Search(len(s), func(j int) bool { return s[j].Slot >= int32(at) })
		if k > 0 {
			train.Series[i] = s[:k:k]
		}
		sim.Series[i] = s[k:].Window(int32(at), int32(tr.Slots))
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
// backing array. Nothing in the simulators uses it — they iterate BySlot,
// which holds one chunk at a time — so each call builds a fresh index.
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

// eventRange returns the bounds [lo, hi) of s's events in slots
// [from, to), from <= to, searching only when s reaches outside them.
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

// slotChunk is how many slots BySlot transposes per pass over the live
// series. Its buffer holds one chunk's events, and each chunk visits every
// series with events left twice (count, then fill), so the chunk trades
// buffer size against those visits: at 64 slots the buffer stays near 64
// times the mean events per slot, and a two-day window visits each series
// at most 45 times.
const slotChunk = 64

// BySlot iterates the occupied slots in [from, to), clipped to [0, Slots),
// in ascending order, yielding each with its (function, count) pairs
// FuncID-ascending: the lists BuildSlotIndex holds, without building them
// all. Slots without invocations are not yielded. The cursor transposes
// slotChunk slots at a time into one reused buffer, so a whole iteration
// allocates O(functions) positions plus the busiest chunk's events. A
// yielded slice is valid until the next iteration: a caller that keeps
// the pairs must copy them. Series must be sorted (the Series invariant);
// events outside the window are skipped.
func (tr *Trace) BySlot(from, to int) iter.Seq2[int, []FuncCount] {
	return func(yield func(int, []FuncCount) bool) {
		from, to := max(from, 0), min(to, tr.Slots)
		if from >= to {
			return
		}
		// live lists the series with events left in the window,
		// FuncID-ascending; pos[k] is live[k]'s next event and next the
		// earliest slot among them, where the next chunk starts — a gap
		// of whole chunks is skipped, not visited.
		live := make([]FuncID, 0, len(tr.Series))
		pos := make([]int32, 0, len(tr.Series))
		next, events := to, 0
		for f, s := range tr.Series {
			i, hi := s.eventRange(from, to)
			if i < hi {
				live = append(live, FuncID(f))
				pos = append(pos, int32(i))
				next = min(next, int(s[i].Slot))
				events += hi - i
			}
		}
		// The buffer starts at a quarter over the window's mean chunk, so
		// a steady trace never regrows it and a burst grows it once.
		buf := make([]FuncCount, 0, events*slotChunk/(to-from)*5/4)
		// start[j] is where slot c0+j's list begins in buf, start[j+1]
		// where it ends.
		var start, fill [slotChunk + 1]int32
		for next < to {
			c0 := next
			c1 := min(c0+slotChunk, to)
			start = [slotChunk + 1]int32{}
			for k, f := range live {
				s := tr.Series[f]
				for i := int(pos[k]); i < len(s) && int(s[i].Slot) < c1; i++ {
					start[int(s[i].Slot)-c0+1]++
				}
			}
			for j := 1; j <= c1-c0; j++ {
				start[j] += start[j-1]
			}
			buf = slices.Grow(buf[:0], int(start[c1-c0]))[:start[c1-c0]]
			// Fill in FuncID order, so each slot's list comes out sorted,
			// and drop the series this chunk exhausts.
			fill, next = start, to
			w := 0
			for k, f := range live {
				s := tr.Series[f]
				i := int(pos[k])
				for ; i < len(s) && int(s[i].Slot) < c1; i++ {
					j := int(s[i].Slot) - c0
					buf[fill[j]] = FuncCount{Func: f, Count: s[i].Count}
					fill[j]++
				}
				if i < len(s) && int(s[i].Slot) < to {
					live[w], pos[w] = f, int32(i)
					next = min(next, int(s[i].Slot))
					w++
				}
			}
			live, pos = live[:w], pos[:w]
			for j := 0; j < c1-c0; j++ {
				if lo, hi := start[j], start[j+1]; lo < hi && !yield(c0+j, buf[lo:hi:hi]) {
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
