package sim

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// FuncMetrics aggregates one function's outcome over a simulation.
type FuncMetrics struct {
	Invocations int64 // slots with >= 1 invocation are counted once per slot? No: total requests
	InvokedSlot int64 // number of slots in which the function was invoked
	ColdStarts  int64 // invoked slots that began with the function unloaded
	WMTMinutes  int64 // loaded-but-idle minutes
}

// ColdStartRate returns cold starts per invoked slot (the paper's
// function-wise CSR: cold starts divided by invocations, where the
// one-execution-per-slot principle makes "invocations" slot-grained).
// Functions never invoked have a CSR of 0 by convention and are excluded
// from CSR distributions by the callers that build them.
func (m FuncMetrics) ColdStartRate() float64 {
	if m.InvokedSlot == 0 {
		return 0
	}
	return float64(m.ColdStarts) / float64(m.InvokedSlot)
}

// AlwaysCold reports whether every invocation of the function was a cold
// start (CSR == 1 with at least one invocation).
func (m FuncMetrics) AlwaysCold() bool {
	return m.InvokedSlot > 0 && m.ColdStarts == m.InvokedSlot
}

// WMTRatio returns wasted memory minutes per invoked slot (Figure 12's
// "ratio of WMT"). Functions never invoked return the raw WMT (they only
// wasted memory).
func (m FuncMetrics) WMTRatio() float64 {
	if m.InvokedSlot == 0 {
		return float64(m.WMTMinutes)
	}
	return float64(m.WMTMinutes) / float64(m.InvokedSlot)
}

// Result is the complete outcome of simulating one policy over one trace.
type Result struct {
	Policy    string
	Slots     int
	Functions int

	PerFunc []FuncMetrics // indexed by FuncID

	TotalInvocations int64 // total requests (sum of counts)
	TotalInvokedSlot int64 // total (function, slot) invocation pairs
	TotalColdStarts  int64
	TotalWMT         int64 // wasted memory minutes
	TotalMemory      int64 // loaded memory-unit-minutes
	MaxLoaded        int   // peak concurrently loaded functions

	// EMCRSum accumulates the per-slot fraction of loaded instances that
	// were invoked; EMCR() averages it over slots that had anything loaded.
	EMCRSum   float64
	EMCRSlots int64

	// Overhead is the wall-clock time the policy spent inside Tick, read
	// around every Tick of every run and summed over a sharded run's
	// shards. A minute the Driver skips as idle runs no Tick and adds
	// nothing. It is the one field Diff ignores.
	Overhead time.Duration

	// Types holds the policy's per-function category labels when the policy
	// implements TypeTagger (nil otherwise), captured after the simulation.
	Types []string
}

// CSRs returns the function-wise cold-start rates of all functions invoked
// at least once during the simulation, the population Figure 8's CDF is
// built from.
func (r *Result) CSRs() []float64 {
	out := make([]float64, 0, len(r.PerFunc))
	for _, m := range r.PerFunc {
		if m.InvokedSlot > 0 {
			out = append(out, m.ColdStartRate())
		}
	}
	return out
}

// QuantileCSR returns the q-quantile of the function-wise CSR distribution
// (q = 0.75 gives the paper's headline Q3-CSR).
func (r *Result) QuantileCSR(q float64) float64 {
	return stats.Quantile(r.CSRs(), q)
}

// AlwaysColdFraction returns the share of invoked functions whose every
// invocation was cold (Figure 9b).
func (r *Result) AlwaysColdFraction() float64 {
	invoked, cold := 0, 0
	for _, m := range r.PerFunc {
		if m.InvokedSlot == 0 {
			continue
		}
		invoked++
		if m.AlwaysCold() {
			cold++
		}
	}
	if invoked == 0 {
		return 0
	}
	return float64(cold) / float64(invoked)
}

// WarmFraction returns the share of invoked functions that never experienced
// a cold start (the paper: 57.99% under SPES).
func (r *Result) WarmFraction() float64 {
	invoked, warm := 0, 0
	for _, m := range r.PerFunc {
		if m.InvokedSlot == 0 {
			continue
		}
		invoked++
		if m.ColdStarts == 0 {
			warm++
		}
	}
	if invoked == 0 {
		return 0
	}
	return float64(warm) / float64(invoked)
}

// MeanLoaded returns the average number of loaded instances per slot — the
// memory-usage measure Figure 9(a) normalizes across policies.
func (r *Result) MeanLoaded() float64 {
	if r.Slots == 0 {
		return 0
	}
	return float64(r.TotalMemory) / float64(r.Slots)
}

// EMCR returns the effective memory consumption ratio: the mean per-slot
// fraction of loaded instances that were actually invoked (Figure 11b).
func (r *Result) EMCR() float64 {
	if r.EMCRSlots == 0 {
		return 0
	}
	return r.EMCRSum / float64(r.EMCRSlots)
}

// OverheadPerSlot returns Tick time per simulated minute: Overhead over
// Slots, so idle-skipped minutes count at zero cost and a sharded run's
// figure is its shards' Tick time summed.
func (r *Result) OverheadPerSlot() time.Duration {
	if r.Slots == 0 {
		return 0
	}
	return r.Overhead / time.Duration(r.Slots)
}

// Diff is the one comparison behind every bit-identity claim (internal/eqv,
// the harness of the equivalence tests and cmd/eqvcheck): "" when got
// equals r in every field but Overhead, which is wall clock; otherwise the
// totals of both sides and the first per-function metrics and type labels
// that differ, one per line.
func (r *Result) Diff(got *Result) string {
	w, g := *r, *got
	w.Overhead, g.Overhead = 0, 0
	if reflect.DeepEqual(&w, &g) {
		return ""
	}
	var b strings.Builder
	for i, x := range []*Result{&w, &g} {
		fmt.Fprintf(&b, "%s: %s, %d functions x %d slots: cold=%d wmt=%d mem=%d emcr=%v/%d max=%d\n",
			[]string{"want", "got"}[i], x.Policy, x.Functions, x.Slots,
			x.TotalColdStarts, x.TotalWMT, x.TotalMemory, x.EMCRSum, x.EMCRSlots, x.MaxLoaded)
	}
	const maxLines = 8 // per kind: enough to see a pattern, short enough to read
	n := 0
	for f := 0; f < len(w.PerFunc) && f < len(g.PerFunc) && n < maxLines; f++ {
		if w.PerFunc[f] != g.PerFunc[f] {
			fmt.Fprintf(&b, "  f%d want=%+v got=%+v\n", f, w.PerFunc[f], g.PerFunc[f])
			n++
		}
	}
	n = 0
	for f := 0; f < len(w.Types) && f < len(g.Types) && n < maxLines; f++ {
		if w.Types[f] != g.Types[f] {
			fmt.Fprintf(&b, "  f%d type want=%s got=%s\n", f, w.Types[f], g.Types[f])
			n++
		}
	}
	return b.String()
}

// GlobalCSR returns the aggregate cold-start rate across all invoked slots.
func (r *Result) GlobalCSR() float64 {
	if r.TotalInvokedSlot == 0 {
		return 0
	}
	return float64(r.TotalColdStarts) / float64(r.TotalInvokedSlot)
}

// TypeBreakdown aggregates per-category means for policies that tag
// functions with types (Figures 10 and 12). Functions invoked zero times
// with zero WMT are skipped. The returned maps are keyed by type label:
// meanCSR averages function-wise CSR over invoked functions; meanWMTRatio
// averages WMT-per-invocation over functions that were invoked or wasted
// memory; counts reports population sizes.
func (r *Result) TypeBreakdown() (meanCSR, meanWMTRatio map[string]float64, counts map[string]int) {
	if r.Types == nil {
		return nil, nil, nil
	}
	type agg struct {
		csrSum  float64
		csrN    int
		wmtSum  float64
		wmtN    int
		members int
	}
	byType := make(map[string]*agg)
	for fid, m := range r.PerFunc {
		label := r.Types[fid]
		a := byType[label]
		if a == nil {
			a = &agg{}
			byType[label] = a
		}
		a.members++
		if m.InvokedSlot > 0 {
			a.csrSum += m.ColdStartRate()
			a.csrN++
		}
		if m.InvokedSlot > 0 || m.WMTMinutes > 0 {
			a.wmtSum += m.WMTRatio()
			a.wmtN++
		}
	}
	meanCSR = make(map[string]float64, len(byType))
	meanWMTRatio = make(map[string]float64, len(byType))
	counts = make(map[string]int, len(byType))
	for label, a := range byType {
		counts[label] = a.members
		if a.csrN > 0 {
			meanCSR[label] = a.csrSum / float64(a.csrN)
		}
		if a.wmtN > 0 {
			meanWMTRatio[label] = a.wmtSum / float64(a.wmtN)
		}
	}
	return meanCSR, meanWMTRatio, counts
}

// funcCountTotal sums the request counts of a slot's invocation list.
func funcCountTotal(invs []trace.FuncCount) int64 {
	var total int64
	for _, fc := range invs {
		total += int64(fc.Count)
	}
	return total
}
