package baselines

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// newTestHist builds a 1-minute-bin histogram for unit tests.
func newTestHist(bins int) *stats.Histogram { return stats.NewHistogram(0, 1, bins) }

// Compile-time interface checks.
var (
	_ sim.Policy = (*FixedKeepAlive)(nil)
	_ sim.Policy = (*Hybrid)(nil)
	_ sim.Policy = (*Defuse)(nil)
	_ sim.Policy = (*FaaSCache)(nil)
	_ sim.Policy = (*LCS)(nil)
)
