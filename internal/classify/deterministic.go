package classify

import (
	"repro/internal/series"
	"repro/internal/stats"
)

// Config carries every threshold of Sections IV-A and IV-B. Zero value is
// unusable; start from DefaultConfig, which uses the paper's published
// settings and sensible values where the paper says "a pre-defined
// constant".
type Config struct {
	// AlwaysWarmIdleFrac is the maximum total inter-invocation idle time as
	// a fraction of the observation window for the always-warm type
	// ("<= one-thousandth the observing time").
	AlwaysWarmIdleFrac float64

	// RegularSpread is the maximum P95-P5 spread of the WT sequence for a
	// regular function (1 slot in the paper).
	RegularSpread float64
	// RegularCV is the alternative regularity condition: coefficient of
	// variation of WTs at or below this (0.01 in the paper).
	RegularCV float64

	// SlackCloseTol and SlackSmallFrac parameterize the WT merging slack
	// rule (see series.MergeSmallWTs).
	SlackCloseTol  int
	SlackSmallFrac float64

	// ApproModes is the paper's n: how many top WT modes the appro-regular
	// test (and its predictive values) use.
	ApproModes int
	// ApproCoverage is the fraction of the WT sequence the top-n modes must
	// cover (0.9 in the paper).
	ApproCoverage float64

	// DenseP90Max is the "small constant" bounding P90(WT) for dense
	// functions; it doubles as their eviction patience.
	DenseP90Max float64
	// DenseModes is the paper's k: how many top modes form the dense
	// predictive range.
	DenseModes int

	// SuccessiveMinAT (gamma1) and SuccessiveMinAN (gamma2) bound the
	// minimum active-run length and per-run invocation count for the
	// successive type; the paper requires gamma1 < gamma2.
	SuccessiveMinAT int
	SuccessiveMinAN int

	// MinWTs is the minimum number of waiting times needed before the
	// regular definition applies. The mode-based definitions need more
	// samples to be meaningful: with only three WTs the top-3 modes cover
	// 100% of any sequence, so appro-regular and dense carry their own
	// (larger) floors.
	MinWTs      int
	ApproMinWTs int
	DenseMinWTs int

	// LinkPrecision is the minimum fraction of a candidate's invocations
	// that must be followed by the target's invocation for a correlated
	// link to be accepted. Without it, a frequently firing candidate links
	// to anything (its lagged COR is trivially high) and the pre-loading it
	// drives wastes memory continuously.
	LinkPrecision float64

	// SlotsPerDay sets the day length for the forgetting rule.
	SlotsPerDay int

	// Alpha is the trade-off scaling factor of the indeterminate assignment
	// rule (Section IV-B2), in (0, 1): smaller favours cold-start
	// minimization.
	Alpha float64

	// CORThreshold is the minimum T-lagged COR for linking two functions
	// (0.5 in the paper) and MaxLag the paper's T bound (10).
	CORThreshold float64
	MaxLag       int32

	// ValidationFrac is the trailing share of the training window used to
	// score the three indeterminate strategies.
	ValidationFrac float64

	// ThetaPrewarm and per-type ThetaGivenup mirror the provision
	// parameters (Section V-A2).
	ThetaPrewarm      int
	ThetaGivenupDense int // used for dense & pulsed (5 in the paper)
	ThetaGivenupOther int // all other types (1 in the paper)

	// ValidationPrewarm is the pre-warm window the indeterminate strategy
	// scoring assumes. It is pinned to the paper's default rather than
	// following ThetaPrewarm so that provision-time parameter sweeps
	// (Figure 13a) change provision behaviour without reshuffling the
	// categorization itself.
	ValidationPrewarm int

	// Workers bounds Categorize's parallelism: per-function work is
	// independent and every result lands in its own output slot, so the
	// outcome is bit-identical for any value. 0 means one worker per
	// available core; 1 forces serial execution. Helper goroutines beyond
	// the calling one draw from a process-wide token pool capped at
	// GOMAXPROCS, so concurrent categorizations (one per population shard)
	// share the machine instead of oversubscribing it.
	Workers int
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		AlwaysWarmIdleFrac: 0.001,
		RegularSpread:      1,
		RegularCV:          0.01,
		SlackCloseTol:      1,
		SlackSmallFrac:     0.1,
		ApproModes:         3,
		ApproCoverage:      0.9,
		DenseP90Max:        5,
		DenseModes:         3,
		SuccessiveMinAT:    3,
		SuccessiveMinAN:    5,
		MinWTs:             3,
		ApproMinWTs:        10,
		DenseMinWTs:        8,
		LinkPrecision:      0.3,
		SlotsPerDay:        1440,
		Alpha:              0.5,
		CORThreshold:       0.5,
		MaxLag:             10,
		ValidationFrac:     0.25,
		ThetaPrewarm:       2,
		ThetaGivenupDense:  5,
		ThetaGivenupOther:  1,
		ValidationPrewarm:  2,
	}
}

// ThetaGivenup returns the eviction patience for a category.
func (c Config) ThetaGivenup(t Type) int {
	if t == TypeDense || t == TypePulsed {
		return c.ThetaGivenupDense
	}
	return c.ThetaGivenupOther
}

// Profile is the categorization outcome for one function: its type plus the
// predictive values Section IV-D's prediction rules consume.
//
// Values and Links are owned by the profile: each is a slice of its own,
// exactly sized, never a view into a categorizer's working memory or into
// another profile's slice. Holders rely on it — core.SPES keeps both for the
// life of the policy and its adaptive strategy rewrites Values in place.
type Profile struct {
	Type Type

	// Values are discrete predictive WTs (regular: median; appro-regular:
	// top-n modes; possible: duplicated WTs).
	Values []int

	// RangeLo/RangeHi bound the dense type's continuous predictive range.
	RangeLo, RangeHi int

	// MedianWT and StdWT summarize the WT sequence the profile was built
	// from; the adaptive adjusting strategy compares online statistics
	// against them.
	MedianWT float64
	StdWT    float64
	WTCount  int

	// Links are the correlated type's predictive indicators.
	Links []Link
}

// Link connects a correlated function to a candidate whose invocation at
// lag slots earlier predicts the target's invocation.
type Link struct {
	Cand int32 // trace.FuncID of the indicator function
	Lag  int32
}

// categorizeWTs tests the regular definition against one WT sequence
// variant with a pre-sorted copy of it, avoiding the per-quantile float
// conversion and sort. sorted must hold the same values as wts in ascending
// order; the float statistics (CV, StdDev) still run over wts in original
// order so their summation rounding matches the reference formulas exactly.
func categorizeWTs(wts, sorted []int, cfg Config) (Profile, bool) {
	if len(wts) < cfg.MinWTs {
		return Profile{}, false
	}

	// Regular: P95 - P5 <= spread, or CV ~ 0.
	p5 := stats.QuantileSortedInts(sorted, 0.05)
	p95 := stats.QuantileSortedInts(sorted, 0.95)
	if p95-p5 <= cfg.RegularSpread || stats.CoefficientOfVariationInts(wts) <= cfg.RegularCV {
		median := stats.MedianSortedInts(sorted)
		return Profile{
			Type:     TypeRegular,
			Values:   []int{int(median + 0.5)},
			MedianWT: median,
			StdWT:    stats.StdDevInts(wts),
			WTCount:  len(wts),
		}, true
	}
	return Profile{}, false
}

// CategorizeDeterministic applies the five deterministic definitions of
// Section IV-A in priority order to a dense invocation sequence. ok is
// false when none match.
func CategorizeDeterministic(counts []int, cfg Config) (Profile, bool) {
	var w scratch
	return w.categorizeActivity(series.Extract(counts), cfg)
}

// categorizeActivity is CategorizeDeterministic over a pre-extracted
// Activity, letting the offline phase feed it from sparse event series
// without materializing dense per-slot vectors. The sorted variants, the
// merged sequence and the frequency tables are built in w; the returned
// profile's Values are its own.
func (w *scratch) categorizeActivity(act series.Activity, cfg Config) (Profile, bool) {
	// 1. Always warm: invoked at every slot, or total inter-invocation idle
	// at or below one-thousandth of the window. The paper's literal
	// condition (2) would also admit a function invoked in one short dense
	// flurry (its summed WT is trivially 0), so the idle-fraction branch
	// additionally requires activity to span most of the window.
	if act.Invocations > 0 {
		if act.InvokedEverySlot() ||
			(float64(act.TotalWT()) <= cfg.AlwaysWarmIdleFrac*float64(act.Slots) &&
				float64(act.ActiveSlots()) >= 0.5*float64(act.Slots)) {
			return Profile{Type: TypeAlwaysWarm, WTCount: len(act.WT)}, true
		}
	}

	// Table I marks both the regular and appro-regular conditions as tested
	// on "(Processed)" WTs, so both run over the slack cascade: raw WTs,
	// end-trimmed WTs, merged WTs (series.SlackVariants, built inline here
	// so each variant is sorted exactly once — the trimmed variant's sorted
	// copy drops two values from the raw one, and the merge rule's reference
	// mode comes from a run-length scan of the sorted base). The quantile
	// reads below reproduce the float-sorting reference bit for bit (see
	// stats.QuantileSortedInts).
	wts := act.WT
	var variants, sortedVariants [3][]int
	nv := 0
	if len(wts) > 0 {
		variants[0] = wts
		w.sorted[0] = sortedInto(w.sorted[0], wts)
		sortedVariants[0] = w.sorted[0]
		nv = 1
	}
	if len(wts) > 2 {
		variants[1] = wts[1 : len(wts)-1]
		w.sorted[1] = withoutTwoInto(w.sorted[1], sortedVariants[0], wts[0], wts[len(wts)-1])
		sortedVariants[1] = w.sorted[1]
		nv = 2
	}
	if nv > 0 {
		base, sortedBase := variants[nv-1], sortedVariants[nv-1]
		mode := series.MergeReferenceModeSorted(sortedBase)
		w.merged = series.AppendMergedWTs(sized(w.merged, len(base))[:0], base, mode, cfg.SlackCloseTol, cfg.SlackSmallFrac)
		if merged := w.merged; len(merged) > 0 && len(merged) != len(base) {
			variants[nv] = merged
			w.sorted[2] = sortedInto(w.sorted[2], merged)
			sortedVariants[nv] = w.sorted[2]
			nv++
		}
	}

	// 2. Regular.
	for i, variant := range variants[:nv] {
		if p, ok := categorizeWTs(variant, sortedVariants[i], cfg); ok {
			return p, true
		}
	}

	// 3. Appro-regular: top-n WT modes cover >= 90% of the sequence.
	for i, variant := range variants[:nv] {
		if len(variant) < cfg.ApproMinWTs {
			continue
		}
		w.table = stats.AppendFrequencyTableSorted(w.table[:0], sortedVariants[i])
		table := w.table
		n := cfg.ApproModes
		if n > len(table) {
			n = len(table)
		}
		cov := 0
		for _, mc := range table[:n] {
			cov += mc.Count
		}
		if float64(cov) >= cfg.ApproCoverage*float64(len(variant)) {
			modes := make([]int, 0, n)
			for _, mc := range table[:n] {
				modes = append(modes, mc.Value)
			}
			return Profile{
				Type:     TypeApproRegular,
				Values:   modes,
				MedianWT: stats.MedianSortedInts(sortedVariants[i]),
				StdWT:    stats.StdDevInts(variant),
				WTCount:  len(variant),
			}, true
		}
	}

	// 4. Dense: P90(WT) <= small constant, tested on the raw sequence.
	if len(act.WT) >= cfg.DenseMinWTs {
		// variants[0] is the raw WT sequence whenever it is non-empty.
		sorted := sortedVariants[0]
		if stats.QuantileSortedInts(sorted, 0.9) <= cfg.DenseP90Max {
			w.table = stats.AppendFrequencyTableSorted(w.table[:0], sorted)
			lo, hi, _ := stats.TableRange(w.table, cfg.DenseModes)
			return Profile{
				Type:     TypeDense,
				RangeLo:  lo,
				RangeHi:  hi,
				MedianWT: stats.MedianSortedInts(sorted),
				StdWT:    stats.StdDevInts(act.WT),
				WTCount:  len(act.WT),
			}, true
		}
	}

	// 5. Successive: sustained waves — every active run lasts >= gamma1
	// slots and carries >= gamma2 invocations. Requires at least two waves
	// so a single long-running burst does not qualify.
	if len(act.AT) >= 2 {
		minAT, _ := stats.MinMaxInts(act.AT)
		minAN, _ := stats.MinMaxInts(act.AN)
		if minAT >= cfg.SuccessiveMinAT && minAN >= cfg.SuccessiveMinAN {
			return Profile{Type: TypeSuccessive, WTCount: len(act.WT)}, true
		}
	}

	return Profile{}, false
}

// CategorizeWithForgetting first tries the full window, then applies the
// forgetting rule of Section IV-B1: drop the oldest day and re-test, out to
// half the observation window. ok is false when no suffix matches.
func CategorizeWithForgetting(counts []int, cfg Config) (Profile, bool) {
	if p, ok := CategorizeDeterministic(counts, cfg); ok {
		return p, true
	}
	days := len(counts) / cfg.SlotsPerDay
	for drop := 1; drop <= days/2; drop++ {
		window := counts[drop*cfg.SlotsPerDay:]
		if p, ok := CategorizeDeterministic(window, cfg); ok {
			return p, true
		}
	}
	return Profile{}, false
}
