package experiments

import "repro/internal/sim"

// cacheable probes for the capability in a type-switch case, which a grep
// for a type assertion cannot see.
func cacheable(p sim.Policy) bool {
	switch p.(type) {
	case sim.ConfigHasher:
		return true
	}
	return false
}
