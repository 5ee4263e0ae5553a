package sim

import "repro/internal/trace"

// LoadedSet is the one choke point through which a policy changes its loaded
// set: membership and count in O(1), and every actual flip appended to a log.
// SPES, its dense reference and every baseline embed it by value, which gives
// them Loaded and LoadedCount (Policy) and TakeLoadDeltas (LoadDeltaTracker)
// with the contract those interfaces state. The zero value is an empty set
// over no functions.
type LoadedSet struct {
	loaded []bool
	count  int
	deltas []trace.FuncID
}

// Reset empties the set, sizes it for n functions and drops the flip log.
func (l *LoadedSet) Reset(n int) {
	l.loaded = make([]bool, n)
	l.count = 0
	l.deltas = l.deltas[:0]
}

// Grow extends the set to at least n functions, the new ones unloaded, for
// policies whose population grows after Train.
func (l *LoadedSet) Grow(n int) {
	for len(l.loaded) < n {
		l.loaded = append(l.loaded, false)
	}
}

// Load adds f, logging the flip; loading a loaded function changes nothing.
func (l *LoadedSet) Load(f trace.FuncID) {
	if !l.loaded[f] {
		l.loaded[f] = true
		l.count++
		l.deltas = append(l.deltas, f)
	}
}

// Unload removes f, logging the flip; unloading an unloaded function changes
// nothing.
func (l *LoadedSet) Unload(f trace.FuncID) {
	if l.loaded[f] {
		l.loaded[f] = false
		l.count--
		l.deltas = append(l.deltas, f)
	}
}

// Loaded implements Policy.
func (l *LoadedSet) Loaded(f trace.FuncID) bool { return l.loaded[f] }

// Len reports how many functions the set covers, loaded or not.
func (l *LoadedSet) Len() int { return len(l.loaded) }

// LoadedCount implements Policy.
func (l *LoadedSet) LoadedCount() int { return l.count }

// TakeLoadDeltas implements LoadDeltaTracker: the flips since the previous
// call, in the order they happened, valid until the set's next mutation. The
// log is reset.
func (l *LoadedSet) TakeLoadDeltas() ([]trace.FuncID, bool) {
	d := l.deltas
	l.deltas = l.deltas[:0]
	return d, true
}

// PendingDeltas reports how many flips the log holds, for callers that must
// not act while the log is undrained.
func (l *LoadedSet) PendingDeltas() int { return len(l.deltas) }
