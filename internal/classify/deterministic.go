package classify

import (
	"repro/internal/series"
	"repro/internal/stats"
)

// Config carries the categorization settings the paper's evaluation varies:
// θ_prewarm and the per-type θ_givenup (Section V-A2, swept in Fig. 13),
// which the offline validation scoring shares with the provision loop.
// Every other threshold of Sections IV-A and IV-B has one value in use and
// is a constant beside the code that reads it. Zero value is unusable;
// start from DefaultConfig.
type Config struct {
	ThetaPrewarm      int
	ThetaGivenupDense int // used for dense & pulsed (5 in the paper)
	ThetaGivenupOther int // all other types (1 in the paper)
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		ThetaPrewarm:      2,
		ThetaGivenupDense: 5,
		ThetaGivenupOther: 1,
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

// The deterministic definitions' thresholds (Section IV-A, Table I), at
// the paper's settings or, where it says "a pre-defined constant", at values
// chosen here.
const (
	// minWTs is the least number of waiting times the regular definition
	// needs. The mode-based definitions need more samples to be meaningful:
	// with only three WTs the top-3 modes cover 100% of any sequence, so
	// appro-regular and dense carry their own (larger) floors.
	minWTs      = 3
	approMinWTs = 10
	denseMinWTs = 8

	// regularSpread bounds the P95-P5 spread of a regular function's WTs (1
	// slot in the paper); regularCV is the alternative condition, a
	// coefficient of variation of the WTs at or below 0.01.
	regularSpread = 1
	regularCV     = 0.01

	// slackCloseTol and slackSmallFrac parameterize the WT merging slack
	// rule (see series.MergeSmallWTs).
	slackCloseTol  = 1
	slackSmallFrac = 0.1

	// approModes is the paper's n: how many top WT modes the appro-regular
	// test (and its predictive values) use; approCoverage is the share of
	// the WT sequence they must cover (0.9 in the paper).
	approModes    = 3
	approCoverage = 0.9

	// denseP90Max is the "small constant" bounding P90(WT) for dense
	// functions.
	denseP90Max = 5

	// successiveMinAT (gamma1) and successiveMinAN (gamma2) bound the
	// minimum active-run length and per-run invocation count for the
	// successive type; the paper requires gamma1 < gamma2.
	successiveMinAT = 3
	successiveMinAN = 5
)

// DenseRangeModes is the paper's k: how many top WT modes form the dense
// type's predictive range, offline here and when core's adjusting strategy
// (Section IV-C1) re-derives the range from online WTs.
const DenseRangeModes = 3

// regularProfile tests the regular definition against one WT variant:
// wts in its original order and d its distribution. The spread test, the
// CV test and the median read d; an emitted profile's StdWT runs over wts in
// original order, so its summation rounding matches the reference formula.
func regularProfile(wts []int, d dist) (Profile, bool) {
	if len(wts) < minWTs {
		return Profile{}, false
	}
	// Regular: P95 - P5 <= spread, or CV ~ 0.
	if d.quantile(0.95)-d.quantile(0.05) <= regularSpread || cvWithin(wts, d, regularCV) {
		median := d.quantile(0.5)
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

// cvWithin reports stats.CoefficientOfVariationInts(wts) <= bound, d being
// the distribution of wts: the integer test decides, and outside its range
// or inside its band the float formula over wts in original order does.
func cvWithin(wts []int, d dist, bound float64) bool {
	switch d.cvAtMost(bound) {
	case cvPass:
		return true
	case cvFail:
		return false
	}
	return stats.CoefficientOfVariationInts(wts) <= bound
}

// categorizeActivity applies definitions 2 to 5 of Section IV-A in
// priority order to an extracted Activity; ok is false when none match.
// Definition 1, always-warm, comes first and is its callers' to test, off
// the window's events (alwaysWarmFast). raw must be the distribution of
// act.WT. The offline phase feeds it from sparse event series without
// materializing dense per-slot vectors. The other variants' distributions
// and the merged sequence are built in w; the returned profile's Values are
// its own.
func (w *scratch) categorizeActivity(act series.Activity, raw dist) (Profile, bool) {
	// Table I marks both the regular and appro-regular conditions as tested
	// on "(Processed)" WTs, so both run over the slack cascade, in order:
	// the raw WTs, the end-trimmed WTs (series.TrimEnds), and the
	// series.MergeSmallWTs merge of the last of those, kept only when it
	// shortened its base. Every statistic of a variant is read off its
	// distribution: the trimmed variant's is the raw one minus two values,
	// and the merge rule's reference mode is the base's. The quantile reads
	// reproduce the float-sorting reference bit for bit (see dist.quantile).
	wts := act.WT
	var variants [3][]int
	var dists [3]dist
	nv := 0
	if len(wts) > 0 {
		variants[0], dists[0], nv = wts, raw, 1
	}
	if len(wts) > 2 {
		variants[1], dists[1], nv = wts[1:len(wts)-1], w.withoutTwoInto(1, raw, wts[0], wts[len(wts)-1]), 2
	}
	if nv > 0 {
		// The merge only rewrites a near-mode WT followed by small ones, a
		// small WT being at most slackSmallFrac of the mode: when not even
		// the smallest value is, the merge is the identity and is skipped.
		base, d := variants[nv-1], dists[nv-1]
		mode := d.referenceMode()
		if mode > 0 && float64(d.minVal()) <= slackSmallFrac*float64(mode) {
			w.merged = series.AppendMergedWTs(sized(w.merged, len(base))[:0], base, mode, slackCloseTol, slackSmallFrac)
			if merged := w.merged; len(merged) > 0 && len(merged) != len(base) {
				variants[nv], dists[nv] = merged, w.distInto(2, merged)
				nv++
			}
		}
	}

	// 2. Regular.
	for i := range nv {
		if p, ok := regularProfile(variants[i], dists[i]); ok {
			return p, true
		}
	}

	// 3. Appro-regular: top-n WT modes cover >= 90% of the sequence. The raw
	// variant's table head is long enough for the dense range too, which
	// reuses it.
	headLen := max(approModes, DenseRangeModes)
	rawHead := false
	for i, variant := range variants[:nv] {
		if len(variant) < approMinWTs {
			continue
		}
		var head []stats.ModeCount
		if i == 0 {
			w.top = raw.topModes(w.top[:0], headLen)
			head, rawHead = w.top, true
		} else {
			w.table = dists[i].topModes(w.table[:0], approModes)
			head = w.table
		}
		head = head[:min(approModes, len(head))]
		cov := 0
		for _, mc := range head {
			cov += mc.Count
		}
		if float64(cov) >= approCoverage*float64(len(variant)) {
			modes := make([]int, 0, len(head))
			for _, mc := range head {
				modes = append(modes, mc.Value)
			}
			return Profile{
				Type:     TypeApproRegular,
				Values:   modes,
				MedianWT: dists[i].quantile(0.5),
				StdWT:    stats.StdDevInts(variant),
				WTCount:  len(variant),
			}, true
		}
	}

	// 4. Dense: P90(WT) <= small constant, tested on the raw sequence.
	if len(wts) >= denseMinWTs && raw.quantile(0.9) <= denseP90Max {
		if !rawHead {
			w.top = raw.topModes(w.top[:0], headLen)
		}
		lo, hi, _ := stats.TableRange(w.top, DenseRangeModes)
		return Profile{
			Type:     TypeDense,
			RangeLo:  lo,
			RangeHi:  hi,
			MedianWT: raw.quantile(0.5),
			StdWT:    stats.StdDevInts(wts),
			WTCount:  len(wts),
		}, true
	}

	// 5. Successive: sustained waves — every active run lasts >= gamma1
	// slots and carries >= gamma2 invocations. Requires at least two waves
	// so a single long-running burst does not qualify.
	if len(act.AT) >= 2 {
		minAT, _ := stats.MinMaxInts(act.AT)
		minAN, _ := stats.MinMaxInts(act.AN)
		if minAT >= successiveMinAT && minAN >= successiveMinAN {
			return Profile{Type: TypeSuccessive, WTCount: len(act.WT)}, true
		}
	}

	return Profile{}, false
}
