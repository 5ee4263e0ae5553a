// Package classify implements SPES's function categorization (Sections IV-A
// and IV-B of the paper): the five deterministic invocation types, the
// forgetting rule, the indeterminate assignment to pulsed / correlated /
// possible, and the T-lagged co-occurrence rate used to link functions.
package classify

import "fmt"

// Type is a SPES function category.
type Type uint8

// Categories in definition-priority order (Section IV-A: "if a function
// fits a former type, it will not fit any latter type"), followed by the
// indeterminate assignments and unknown.
const (
	TypeUnknown Type = iota
	TypeAlwaysWarm
	TypeRegular
	TypeApproRegular
	TypeDense
	TypeSuccessive
	TypePulsed
	TypeCorrelated
	TypePossible
	TypeNewlyPossible // unknown/unseen functions categorized online (§IV-C)
	// NumTypes is the number of categories; dense per-type tables index by
	// Type below it.
	NumTypes
)

var typeNames = [...]string{
	TypeUnknown:       "unknown",
	TypeAlwaysWarm:    "always-warm",
	TypeRegular:       "regular",
	TypeApproRegular:  "appro-regular",
	TypeDense:         "dense",
	TypeSuccessive:    "successive",
	TypePulsed:        "pulsed",
	TypeCorrelated:    "correlated",
	TypePossible:      "possible",
	TypeNewlyPossible: "newly-possible",
}

// String returns the report label of the type.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Types lists all categories in display order.
func Types() []Type {
	out := make([]Type, NumTypes)
	for i := range out {
		out[i] = Type(i)
	}
	return out
}

// PredictiveKind describes how a type's predictive values are interpreted
// when predicting the next invocation (Section IV-D).
type PredictiveKind uint8

// Prediction flavours.
const (
	PredictNone       PredictiveKind = iota // no prediction (always-warm, successive, pulsed, unknown)
	PredictDiscrete                         // each value is a candidate WT
	PredictContinuous                       // all integer WTs within [min, max] of values
	PredictIndicator                        // follow linked functions' invocations
)

// Kind returns how a category's predictive values drive prediction.
// "Possible" is resolved by the predictor at runtime (discrete when the
// value range is wide, continuous when narrow), so it reports discrete here
// and the predictor refines it.
func (t Type) Kind() PredictiveKind {
	switch t {
	case TypeRegular, TypeApproRegular, TypePossible, TypeNewlyPossible:
		return PredictDiscrete
	case TypeDense:
		return PredictContinuous
	case TypeCorrelated:
		return PredictIndicator
	default:
		return PredictNone
	}
}
