package baselines

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// lru keeps a loaded set of its own instead of embedding sim.LoadedSet.
type lru struct{ flips []trace.FuncID }

func (l *lru) TakeLoadDeltas() ([]trace.FuncID, bool) { return l.flips, true }

var _ sim.LoadDeltaTracker = (*lru)(nil)
