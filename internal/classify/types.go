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
