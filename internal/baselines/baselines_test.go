package baselines

import (
	"testing"

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

func TestLoadedSet(t *testing.T) {
	s := newLoadedSet(3)
	if s.has(0) || s.count != 0 {
		t.Fatal("fresh set not empty")
	}
	s.add(1)
	s.add(1) // idempotent
	if !s.has(1) || s.count != 1 {
		t.Errorf("after add: has=%v count=%d", s.has(1), s.count)
	}
	s.remove(1)
	s.remove(1) // idempotent
	if s.has(1) || s.count != 0 {
		t.Errorf("after remove: has=%v count=%d", s.has(1), s.count)
	}
}
