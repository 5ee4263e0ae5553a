// Package baselines implements the five schedulers the paper evaluates SPES
// against: a fixed keep-alive policy, the Hybrid histogram policy of
// Shahrad et al. (ATC'20) at function (HF) and application (HA)
// granularity, Defuse (Shen et al., ICDCS'21), FaaSCache (Fuerst & Sharma,
// ASPLOS'21), and — as an extension — LCS (Sethi et al., ICDCN'23).
//
// All policies implement sim.Policy and sim.LoadDeltaTracker through an
// embedded sim.LoadedSet. Parameters default to the settings the
// original papers report, as the SPES evaluation prescribes.
package baselines
