package experiments

import "repro/internal/sim"

// cacheable probes for a capability the type system already decides.
func cacheable(p sim.Policy) bool {
	_, ok := p.(sim.ConfigHasher)
	return ok
}
