// Package series extracts the activity descriptors SPES is built on from
// per-slot invocation sequences: waiting times (WT), active times (AT), and
// active numbers (AN), as defined in Section IV of the paper, together with
// the slack rules that pre-process WT sequences before categorization.
//
// Throughout the package an invocation sequence is a []int of per-slot
// invocation counts (one slot = one minute in the reproduction's default
// configuration). Counts are never negative; negative inputs are treated as
// zero to stay robust against malformed trace rows.
package series

// Activity bundles the three descriptors extracted from one invocation
// sequence.
//
// Using the paper's example, the sequence (28, 0, 12, 1, 0, 0, 0, 7) yields
// WT = (1, 3): a one-slot gap after the first active run and a three-slot
// gap before the last; AT = (1, 2, 1): active runs at slots 1, 3-4, and 8;
// AN = (28, 13, 7): total invocations of each active run. Leading and
// trailing idle slots are not waiting times — a WT is the gap *between* two
// active runs.
type Activity struct {
	WT []int // gaps (in slots) between successive active runs
	AT []int // lengths (in slots) of active runs
	AN []int // total invocation count of each active run

	Slots       int // total sequence length
	Invocations int // total invocation count
}

// Extract computes the Activity of an invocation sequence.
func Extract(counts []int) Activity {
	a := Activity{Slots: len(counts)}
	runStart := -1 // start of the current active run, -1 when idle
	runSum := 0
	lastActiveEnd := -1 // index just past the previous active run

	for i, raw := range counts {
		c := raw
		if c < 0 {
			c = 0
		}
		if c > 0 {
			a.Invocations += c
			if runStart < 0 {
				runStart = i
				runSum = 0
				if lastActiveEnd >= 0 {
					a.WT = append(a.WT, i-lastActiveEnd)
				}
			}
			runSum += c
		} else if runStart >= 0 {
			a.AT = append(a.AT, i-runStart)
			a.AN = append(a.AN, runSum)
			lastActiveEnd = i
			runStart = -1
		}
	}
	if runStart >= 0 {
		a.AT = append(a.AT, len(counts)-runStart)
		a.AN = append(a.AN, runSum)
	}
	return a
}

// ActiveSlots returns the number of slots with at least one invocation.
func (a Activity) ActiveSlots() int {
	total := 0
	for _, at := range a.AT {
		total += at
	}
	return total
}

// TotalWT returns the sum of all waiting times (inter-run idle only; leading
// and trailing idle are excluded, matching the always-warm definition's
// "sum of inter-invocation time").
func (a Activity) TotalWT() int {
	total := 0
	for _, wt := range a.WT {
		total += wt
	}
	return total
}

// InvokedEverySlot reports whether every slot of the sequence carried at
// least one invocation (and the sequence is non-empty).
func (a Activity) InvokedEverySlot() bool {
	return a.Slots > 0 && a.ActiveSlots() == a.Slots
}

// InvokedSlots returns the indices of slots with at least one invocation.
func InvokedSlots(counts []int) []int {
	var out []int
	for i, c := range counts {
		if c > 0 {
			out = append(out, i)
		}
	}
	return out
}
