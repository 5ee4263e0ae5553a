package classify

import (
	"testing"
	"testing/quick"
)

func TestCOR(t *testing.T) {
	tests := []struct {
		name      string
		target    []int32
		candidate []int32
		want      float64
	}{
		{"identical", []int32{1, 5, 9}, []int32{1, 5, 9}, 1},
		{"disjoint", []int32{1, 3}, []int32{2, 4}, 0},
		{"half", []int32{1, 2, 3, 4}, []int32{2, 4}, 0.5},
		{"empty target", nil, []int32{1}, 0},
		{"empty candidate", []int32{1}, nil, 0},
		{"candidate superset", []int32{5}, []int32{1, 5, 9}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := COR(tt.target, tt.candidate); got != tt.want {
				t.Errorf("COR = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestLaggedCOR(t *testing.T) {
	// Candidate fires exactly 2 slots before every target invocation.
	target := []int32{10, 20, 30}
	cand := []int32{8, 18, 28}
	if got := LaggedCOR(target, cand, 2); got != 1 {
		t.Errorf("LaggedCOR(lag=2) = %v, want 1", got)
	}
	if got := LaggedCOR(target, cand, 1); got != 0 {
		t.Errorf("LaggedCOR(lag=1) = %v, want 0", got)
	}
	if got := LaggedCOR(target, cand, 0); got != 0 {
		t.Errorf("LaggedCOR(lag=0) = %v, want 0 (COR of disjoint)", got)
	}
	if got := LaggedCOR(nil, cand, 2); got != 0 {
		t.Errorf("LaggedCOR empty = %v", got)
	}
}

func TestBestLaggedCOR(t *testing.T) {
	target := slotSeries(10, 20, 30, 40)
	cand := slotSeries(7, 17, 27, 2) // lag 3 matches 3 of 4
	lag, cor := BestLaggedCOR(target, cand, 10)
	if lag != 3 {
		t.Errorf("best lag = %d, want 3", lag)
	}
	if cor != 0.75 {
		t.Errorf("best COR = %v, want 0.75", cor)
	}
	lag, cor = BestLaggedCOR(nil, cand, 10)
	if lag != 0 || cor != 0 {
		t.Errorf("empty best = (%d, %v)", lag, cor)
	}
}

func TestWindowedCOR(t *testing.T) {
	target := []int32{10, 20, 30}
	cand := []int32{9, 15, 29}
	// t=10: cand 9 in [0,9] window -> hit; t=20: cand 15 in [10,19] -> hit;
	// t=30: cand 29 -> hit.
	if got := WindowedCOR(target, cand, 10); got != 1 {
		t.Errorf("WindowedCOR = %v, want 1", got)
	}
	// Window of 1: only exact t-1 hits: 9->10 and 29->30.
	if got := WindowedCOR(target, cand, 1); got < 0.6 || got > 0.7 {
		t.Errorf("WindowedCOR(1) = %v, want 2/3", got)
	}
	if got := WindowedCOR(nil, cand, 5); got != 0 {
		t.Errorf("WindowedCOR empty = %v", got)
	}
	// Candidate firing at t itself does not count (must precede).
	if got := WindowedCOR([]int32{5}, []int32{5}, 3); got != 0 {
		t.Errorf("WindowedCOR same-slot = %v, want 0", got)
	}
}

func TestInvokedSlotsFromSorted(t *testing.T) {
	sorted := []int32{1, 2, 3}
	if got := InvokedSlotsFromSorted(sorted); &got[0] != &sorted[0] {
		t.Error("sorted input should be returned as-is")
	}
	unsorted := []int32{3, 1, 2}
	got := InvokedSlotsFromSorted(unsorted)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("unsorted input not fixed: %v", got)
	}
	if unsorted[0] != 3 {
		t.Error("input was mutated")
	}
}

// Property: COR is always within [0, 1] and equals 1 when candidate equals
// target.
func TestCORRangeProperty(t *testing.T) {
	f := func(rawT, rawC []uint16) bool {
		target := dedupSorted(rawT)
		cand := dedupSorted(rawC)
		c := COR(target, cand)
		if c < 0 || c > 1 {
			return false
		}
		if len(target) > 0 && COR(target, target) != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: WindowedCOR is monotone in the window size.
func TestWindowedCORMonotoneProperty(t *testing.T) {
	f := func(rawT, rawC []uint16, w uint8) bool {
		target := dedupSorted(rawT)
		cand := dedupSorted(rawC)
		win := int32(w%20) + 1
		return WindowedCOR(target, cand, win) <= WindowedCOR(target, cand, win+5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func dedupSorted(raw []uint16) []int32 {
	seen := make(map[int32]bool)
	var out []int32
	for _, v := range raw {
		s := int32(v % 500)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return InvokedSlotsFromSorted(out)
}
