// Package core implements SPES itself: the differentiated provision policy
// of Algorithm 1 built on offline categorization (internal/classify),
// per-type invocation prediction (internal/predict), and the two adaptive
// strategies of Section IV-C (predictive-value adjusting and online
// correlation for unseen functions).
package core

import "repro/internal/classify"

// Config collects the SPES parameters the paper's evaluation varies: the
// provision thresholds θ_prewarm and θ_givenup (Fig. 13) and the ablation
// switches (Figs. 14-15). Every other threshold has one value in use and is
// a constant beside the code that reads it.
type Config struct {
	// Classify carries ThetaPrewarm and the per-type ThetaGivenup values,
	// which the provision loop shares with the offline validation scoring.
	Classify classify.Config

	// Ablation switches (all false in full SPES):
	DisableCorrelation bool // "w/o Corr": no offline correlated type (Fig. 14)
	DisableOnlineCorr  bool // "w/o Online-Corr": unseen functions stay unknown (Fig. 14)
	DisableForgetting  bool // "w/o Forgetting" (Fig. 15)
	DisableAdjusting   bool // "w/o Adjusting" (Fig. 15)
}

// DefaultConfig returns the paper's evaluation settings.
func DefaultConfig() Config {
	return Config{Classify: classify.DefaultConfig()}
}
