//go:build race

package classify

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so byte-exact allocation budgets do not apply.
const raceEnabled = true
