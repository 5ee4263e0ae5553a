package sim

import "repro/internal/trace"

// events transposes the whole trace at once instead of iterating BySlot.
func events(tr *trace.Trace) *trace.SlotIndex { return tr.BuildSlotIndex() }
