package trace

import "math/rand"

// draw takes a value from math/rand's global stream, not stats.RNG.
func draw() int { return rand.Intn(10) }
