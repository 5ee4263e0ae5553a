package sim

import "repro/internal/trace"

// events transposes the whole trace at once instead of reading a trace.Cursor.
func events(tr *trace.Trace) *trace.SlotIndex { return tr.BuildSlotIndex() }
