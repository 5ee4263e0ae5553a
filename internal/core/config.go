// Package core implements SPES itself: the differentiated provision policy
// of Algorithm 1 built on offline categorization (internal/classify),
// per-type invocation prediction (internal/predict), and the two adaptive
// strategies of Section IV-C (predictive-value adjusting and online
// correlation for unseen functions).
package core

import "repro/internal/classify"

// Config collects every SPES parameter, including the ablation switches the
// paper's RQ4 experiments flip.
type Config struct {
	// Classify carries the categorization thresholds (Section IV-A/B),
	// including ThetaPrewarm and the per-type ThetaGivenup values that the
	// provision loop shares with the offline validation scoring.
	Classify classify.Config

	// PossibleRangeMax is Section IV-D's threshold separating discrete from
	// continuous interpretation of a possible function's predictive values.
	PossibleRangeMax int

	// AdjustMinWTs is the "enough WTs" bar (Section IV-C1 S1) before the
	// adjusting strategy compares online statistics against the profile.
	AdjustMinWTs int

	// OnlineCandidateCap bounds how many same-trigger candidates an unseen
	// function tracks during online correlation.
	OnlineCandidateCap int

	// OnlineCorrSlack is how far below the maximum COR a candidate may fall
	// before it is dropped from an unseen function's candidate set.
	OnlineCorrSlack float64

	// Ablation switches (all false in full SPES):
	DisableCorrelation bool // "w/o Corr": no offline correlated type (Fig. 14)
	DisableOnlineCorr  bool // "w/o Online-Corr": unseen functions stay unknown (Fig. 14)
	DisableForgetting  bool // "w/o Forgetting" (Fig. 15)
	DisableAdjusting   bool // "w/o Adjusting" (Fig. 15)
}

// DefaultConfig returns the paper's evaluation settings.
func DefaultConfig() Config {
	return Config{
		Classify:           classify.DefaultConfig(),
		PossibleRangeMax:   10,
		AdjustMinWTs:       5,
		OnlineCandidateCap: 10,
		OnlineCorrSlack:    0.3,
	}
}
