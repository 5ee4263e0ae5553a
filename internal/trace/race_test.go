//go:build race

package trace

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so allocation budgets do not apply.
const raceEnabled = true
