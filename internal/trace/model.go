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
	"slices"
	"sort"
	"sync"
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
// per function, over Slots minutes.
type Trace struct {
	Slots     int
	Functions []Function
	Series    []Series // indexed by FuncID

	// idx memoizes BuildSlotIndex (guarded by idxMu; invalidated by
	// AddFunction), so repeated simulations over the same trace — including
	// concurrent policy runs in sim.RunAll — share one slot-major index.
	idxMu sync.Mutex
	idx   *SlotIndex
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
	tr.idxMu.Lock()
	tr.idx = nil
	tr.idxMu.Unlock()
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

// SlotIndex groups a trace's events by slot for slot-major simulation.
// Invocations[t] lists the (function, count) pairs invoked at slot t,
// ordered by FuncID.
type SlotIndex struct {
	Invocations [][]FuncCount
}

// FuncCount is one function's invocation count within a single slot.
type FuncCount struct {
	Func  FuncID
	Count int32
}

// BuildSlotIndex converts the function-major trace into a slot-major index.
// Per-slot lists are counted first and carved out of one backing array, so
// the build does exactly two passes over the events and two allocations
// regardless of trace size. The result is memoized per trace (adding a
// function invalidates it); callers must not mutate the returned index.
func (tr *Trace) BuildSlotIndex() *SlotIndex {
	tr.idxMu.Lock()
	defer tr.idxMu.Unlock()
	if tr.idx != nil {
		return tr.idx
	}
	tr.idx = tr.buildSlotIndex()
	return tr.idx
}

func (tr *Trace) buildSlotIndex() *SlotIndex {
	counts := make([]int32, tr.Slots+1)
	total := 0
	for _, s := range tr.Series {
		for _, e := range s {
			if int(e.Slot) >= tr.Slots {
				continue
			}
			counts[e.Slot]++
			total++
		}
	}
	backing := make([]FuncCount, total)
	offsets := make([]int32, tr.Slots+1)
	for t := 0; t < tr.Slots; t++ {
		offsets[t+1] = offsets[t] + counts[t]
	}
	fill := make([]int32, tr.Slots)
	idx := &SlotIndex{Invocations: make([][]FuncCount, tr.Slots)}
	for t := 0; t < tr.Slots; t++ {
		idx.Invocations[t] = backing[offsets[t]:offsets[t+1]:offsets[t+1]]
	}
	// Within a slot, events are filled in FuncID order (the outer loop is
	// FuncID-major), so no per-slot sort is needed.
	for fid, s := range tr.Series {
		for _, e := range s {
			if int(e.Slot) >= tr.Slots {
				continue
			}
			backing[offsets[e.Slot]+fill[e.Slot]] = FuncCount{Func: FuncID(fid), Count: e.Count}
			fill[e.Slot]++
		}
	}
	return idx
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
