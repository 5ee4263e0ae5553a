//go:build race

package serve

// raceEnabled reports that the race detector is on: its instrumentation
// allocates and sync.Pool drops items at random under it, so allocation
// budgets do not apply.
const raceEnabled = true
