package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Runner regenerates one paper artifact from a materialized workload (one
// opened without Stream or Store). The figures of one invocation share it,
// and with it the trace and the one comparison Figures 8 to 12 and the
// overhead table read.
type Runner func(w io.Writer, wl *Workload) error

// registry maps figure ids (as accepted by cmd/spes-experiments -fig) to
// their runners.
var registry = map[string]Runner{
	"3":        Fig3,
	"4":        Fig4,
	"5":        Fig5,
	"6":        Fig6,
	"cor":      CORStats,
	"8":        Fig8,
	"9a":       Fig9a,
	"9b":       Fig9b,
	"10":       Fig10,
	"11a":      Fig11a,
	"11b":      Fig11b,
	"12":       Fig12,
	"13a":      Fig13a,
	"13b":      Fig13b,
	"14":       Fig14,
	"15":       Fig15,
	"overhead": Overhead,
}

// Lookup returns the runner for a figure id.
func Lookup(id string) (Runner, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure %q (have %v)", id, IDs())
	}
	return r, nil
}

// IDs lists the registered figure ids in stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// RunAllFigures regenerates every artifact from one workload in a sensible
// order.
func RunAllFigures(w io.Writer, wl *Workload) error {
	order := []string{"3", "5", "4", "6", "cor", "8", "9a", "9b", "10", "11a", "11b", "12", "overhead", "13a", "13b", "14", "15"}
	for _, id := range order {
		fmt.Fprintf(w, "\n===== %s =====\n", id)
		if err := registry[id](w, wl); err != nil {
			return fmt.Errorf("experiments: figure %s: %w", id, err)
		}
	}
	return nil
}
