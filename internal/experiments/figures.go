package experiments

import (
	"fmt"
	"io"
	"maps"
	"slices"

	"repro/internal/classify"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Fig3 reproduces the invocation-imbalance histogram: how many functions
// fall into each decade of total invocation count.
func Fig3(w io.Writer, s Settings) error {
	full, _, _, err := BuildWorkload(s)
	if err != nil {
		return err
	}
	totals := make([]int64, full.NumFunctions())
	for i, ser := range full.Series {
		totals[i] = ser.Total()
	}
	buckets := stats.CountBuckets(totals, 9)
	fmt.Fprintln(w, "Figure 3 — distribution of function invocation counts")
	labels := []string{"0"}
	values := []float64{float64(buckets[0])}
	for e := 0; e < 10; e++ {
		labels = append(labels, fmt.Sprintf("[10^%d,10^%d)", e, e+1))
		values = append(values, float64(buckets[e+1]))
	}
	report.BarChart(w, "  functions per invocation-count decade", labels, values)
	return nil
}

// Fig5 reproduces the trigger-type proportion chart.
func Fig5(w io.Writer, s Settings) error {
	full, _, _, err := BuildWorkload(s)
	if err != nil {
		return err
	}
	counts := make(map[trace.Trigger]int)
	for _, f := range full.Functions {
		counts[f.Trigger]++
	}
	fmt.Fprintln(w, "Figure 5 — proportion of trigger types among functions")
	tab := report.NewTable("Trigger", "Functions", "Share", "Paper")
	paper := map[trace.Trigger]float64{
		trace.TriggerHTTP: 41.19, trace.TriggerTimer: 26.64, trace.TriggerQueue: 14.40,
		trace.TriggerOrchestration: 7.76, trace.TriggerOthers: 2.72, trace.TriggerEvent: 2.52,
		trace.TriggerStorage: 2.19, trace.TriggerCombination: 2.60,
	}
	n := float64(full.NumFunctions())
	for _, trig := range trace.Triggers() {
		tab.AddRow(trig.String(),
			fmt.Sprint(counts[trig]),
			fmt.Sprintf("%.2f%%", 100*float64(counts[trig])/n),
			fmt.Sprintf("%.2f%%", paper[trig]))
	}
	tab.Render(w)
	return nil
}

// Fig4 dumps per-minute (hour-aggregated) sparklines for functions with
// visible concept shifts, the qualitative claim of Figure 4.
func Fig4(w io.Writer, s Settings) error {
	full, _, _, err := BuildWorkload(s)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 4 — concept shifts in invocation behaviour (hourly totals)")
	shown := 0
	for fid, ser := range full.Series {
		if ser.Total() < 500 {
			continue
		}
		hours := hourly(ser, full.Slots)
		if !looksShifted(hours) {
			continue
		}
		fmt.Fprintf(w, "  func %-5d %s\n", fid, report.Sparkline(hours))
		shown++
		if shown >= 3 {
			break
		}
	}
	if shown == 0 {
		fmt.Fprintln(w, "  (no strongly shifted function at this scale; raise -functions)")
	}
	return nil
}

// Fig6 dumps sparklines of infrequently invoked functions with temporal
// locality (invocations concentrated in a few bursts).
func Fig6(w io.Writer, s Settings) error {
	full, _, _, err := BuildWorkload(s)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 6 — temporal locality of infrequently invoked functions (hourly totals)")
	shown := 0
	for fid, ser := range full.Series {
		total := ser.Total()
		if total < 20 || total > 400 {
			continue
		}
		span := int(ser.LastSlot() - ser.FirstSlot() + 1)
		if span <= 0 {
			continue
		}
		// Bursty: invoked slots concentrated within a long overall span.
		act := len(ser)
		if float64(act)/float64(span) > 0.4 || span < full.Slots/10 {
			continue
		}
		fmt.Fprintf(w, "  func %-5d %s\n", fid, report.Sparkline(hourly(ser, full.Slots)))
		shown++
		if shown >= 5 {
			break
		}
	}
	if shown == 0 {
		fmt.Fprintln(w, "  (no matching burst function at this scale; raise -functions)")
	}
	return nil
}

// CORStats reproduces the co-occurrence analysis of Section III-B2:
// candidate functions (sharing an app/user) vs negative samples, split by
// same/different trigger.
func CORStats(w io.Writer, s Settings) error {
	full, _, _, err := BuildWorkload(s)
	if err != nil {
		return err
	}
	invoked := make([][]int32, full.NumFunctions())
	for fid, ser := range full.Series {
		for _, e := range ser {
			invoked[fid] = append(invoked[fid], e.Slot)
		}
	}
	// Apps in sorted-name order: the negative samples are drawn from one RNG
	// and the sums are floats, so map order would change the table run to run.
	apps := full.AppFunctions()
	names := slices.Sorted(maps.Keys(apps))
	rng := stats.NewRNG(s.Seed + 99)

	var candSum, negSum float64
	var candN, negN int
	var sameTrigSum, diffTrigSum float64
	var sameTrigN, diffTrigN int
	for _, name := range names {
		fns := apps[name]
		if len(fns) < 2 {
			continue
		}
		for _, target := range fns {
			if len(invoked[target]) < 5 {
				continue
			}
			for _, cand := range fns {
				if cand == target || len(invoked[cand]) == 0 {
					continue
				}
				cor := classify.COR(invoked[target], invoked[cand])
				candSum += cor
				candN++
				if full.Functions[target].Trigger == full.Functions[cand].Trigger {
					sameTrigSum += cor
					sameTrigN++
				} else {
					diffTrigSum += cor
					diffTrigN++
				}
			}
			// Negative samples: functions from other apps/users.
			for i := 0; i < 50; i++ {
				neg := trace.FuncID(rng.Intn(full.NumFunctions()))
				if full.Functions[neg].App == full.Functions[target].App ||
					full.Functions[neg].User == full.Functions[target].User {
					continue
				}
				negSum += classify.COR(invoked[target], invoked[neg])
				negN++
			}
		}
	}
	mean := func(sum float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	fmt.Fprintln(w, "Section III-B2 — co-occurrence rate analysis")
	tab := report.NewTable("Population", "Mean COR", "Paper")
	tab.AddRow("candidates (same app/user)", fmt.Sprintf("%.4f", mean(candSum, candN)), "0.2312")
	tab.AddRow("negative samples", fmt.Sprintf("%.4f", mean(negSum, negN)), "0.0504")
	tab.AddRow("candidates, same trigger", fmt.Sprintf("%.4f", mean(sameTrigSum, sameTrigN)), "0.2710")
	tab.AddRow("candidates, different trigger", fmt.Sprintf("%.4f", mean(diffTrigSum, diffTrigN)), "0.1307")
	tab.Render(w)
	ratio := mean(candSum, candN) / max(mean(negSum, negN), 1e-9)
	fmt.Fprintf(w, "candidate/negative ratio: %.1fx (paper: ~4.6x)\n", ratio)
	return nil
}

// hourly aggregates a series into hourly totals.
func hourly(ser trace.Series, slots int) []float64 {
	nHours := (slots + 59) / 60
	out := make([]float64, nHours)
	for _, e := range ser {
		out[int(e.Slot)/60] += float64(e.Count)
	}
	return out
}

// looksShifted flags a series whose first-half and second-half hourly means
// differ by more than 3x in either direction.
func looksShifted(hours []float64) bool {
	if len(hours) < 4 {
		return false
	}
	half := len(hours) / 2
	a := stats.Mean(hours[:half])
	b := stats.Mean(hours[half:])
	if a == 0 || b == 0 {
		return a != b
	}
	return a/b > 3 || b/a > 3
}
