package core

import (
	"testing"

	"repro/internal/classify"
	"repro/internal/trace"
)

// trainedSPES builds a minimal trained SPES over one function with the
// given profile, bypassing categorization, for focused adaptive tests.
func trainedSPES(profile classify.Profile) *SPES {
	s := New(DefaultConfig())
	tr := trace.NewTrace(100)
	tr.AddFunction("f", "app", "u", trace.TriggerHTTP, []trace.Event{{Slot: 0, Count: 1}})
	s.Train(tr)
	s.states[0].profile = profile
	s.typ[0] = profile.Type
	return s
}

func TestAdjustRegularShiftsMedian(t *testing.T) {
	s := trainedSPES(classify.Profile{
		Type: classify.TypeRegular, Values: []int{60}, MedianWT: 60, StdWT: 0.5,
	})
	st := &s.states[0]
	// Online WTs drift to ~120: after adjustMinWTs samples the predictive
	// value blends to (60+120)/2 = 90.
	for i := 0; i < adjustMinWTs; i++ {
		s.recordOnlineWT(0, 120)
	}
	if got := st.profile.Values[0]; got != 90 {
		t.Errorf("adjusted value = %d, want 90", got)
	}
	if st.profile.MedianWT != 90 {
		t.Errorf("adjusted median = %v, want 90", st.profile.MedianWT)
	}
}

func TestAdjustRegularIgnoresSmallDrift(t *testing.T) {
	s := trainedSPES(classify.Profile{
		Type: classify.TypeRegular, Values: []int{60}, MedianWT: 60, StdWT: 5,
	})
	st := &s.states[0]
	// Drift of 3 < std 5: no adjustment.
	for i := 0; i < adjustMinWTs; i++ {
		s.recordOnlineWT(0, 63)
	}
	if got := st.profile.Values[0]; got != 60 {
		t.Errorf("value = %d, want unchanged 60", got)
	}
}

func TestAdjustDenseRange(t *testing.T) {
	s := trainedSPES(classify.Profile{
		Type: classify.TypeDense, RangeLo: 1, RangeHi: 3, MedianWT: 2, StdWT: 0.5,
	})
	st := &s.states[0]
	// Online gaps around 9-11: range blends toward the new behaviour.
	wts := []int{9, 10, 11, 10, 9, 10, 11}
	for _, wt := range wts {
		s.recordOnlineWT(0, wt)
	}
	if st.profile.RangeLo <= 1 && st.profile.RangeHi <= 3 {
		t.Errorf("range not adjusted: [%d, %d]", st.profile.RangeLo, st.profile.RangeHi)
	}
	if st.profile.RangeHi < st.profile.RangeLo {
		t.Errorf("inverted range [%d, %d]", st.profile.RangeLo, st.profile.RangeHi)
	}
}

func TestPromoteUnknownRequiresRepeats(t *testing.T) {
	s := trainedSPES(classify.Profile{Type: classify.TypeUnknown})
	st := &s.states[0]
	// Distinct WTs: no promotion.
	for i, wt := range []int{10, 25, 47, 81, 133} {
		_ = i
		s.recordOnlineWT(0, wt)
	}
	if st.profile.Type != classify.TypeUnknown {
		t.Fatalf("promoted on distinct WTs: %v", st.profile.Type)
	}
	// Repeats appear: promotion to newly-possible with those values.
	for i := 0; i < adjustMinWTs; i++ {
		s.recordOnlineWT(0, 50)
	}
	if st.profile.Type != classify.TypeNewlyPossible {
		t.Fatalf("not promoted: %v", st.profile.Type)
	}
	found := false
	for _, v := range st.profile.Values {
		if v == 50 {
			found = true
		}
	}
	if !found {
		t.Errorf("promoted values = %v, want to include 50", st.profile.Values)
	}
}

func TestRecordOnlineWTDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableAdjusting = true
	s := New(cfg)
	tr := trace.NewTrace(100)
	tr.AddFunction("f", "app", "u", trace.TriggerHTTP, []trace.Event{{Slot: 0, Count: 1}})
	s.Train(tr)
	st := &s.states[0]
	st.profile = classify.Profile{Type: classify.TypeUnknown}
	s.typ[0] = classify.TypeUnknown
	for i := 0; i < 20; i++ {
		s.recordOnlineWT(0, 50)
	}
	if st.profile.Type != classify.TypeUnknown {
		t.Error("adjusting ran despite DisableAdjusting")
	}
	if len(st.onlineWTs) != 0 {
		t.Error("WTs recorded despite DisableAdjusting")
	}
}

func TestOnlineWTHistoryBounded(t *testing.T) {
	s := trainedSPES(classify.Profile{Type: classify.TypeUnknown})
	st := &s.states[0]
	for i := 0; i < 3*maxOnlineWTs; i++ {
		s.recordOnlineWT(0, 10000+i) // all distinct: never promoted
	}
	if len(st.onlineWTs) > maxOnlineWTs {
		t.Errorf("online WT history = %d, want <= %d", len(st.onlineWTs), maxOnlineWTs)
	}
	if st.adjustedAt < 0 || st.adjustedAt > len(st.onlineWTs) {
		t.Errorf("adjustedAt = %d out of range", st.adjustedAt)
	}
}

func TestApproRegularAdjustBlendsModes(t *testing.T) {
	s := trainedSPES(classify.Profile{
		Type: classify.TypeApproRegular, Values: []int{10, 12}, MedianWT: 11, StdWT: 1,
	})
	st := &s.states[0]
	for i := 0; i < adjustMinWTs; i++ {
		s.recordOnlineWT(0, 30)
	}
	// New mode 30 blends rank-by-rank: (10+30)/2 = 20 for the first value.
	if st.profile.Values[0] != 20 {
		t.Errorf("blended first mode = %d, want 20", st.profile.Values[0])
	}
	// Second value has no online counterpart and stays.
	if st.profile.Values[1] != 12 {
		t.Errorf("second mode = %d, want unchanged 12", st.profile.Values[1])
	}
}
