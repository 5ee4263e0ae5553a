package classify

import (
	"slices"
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
	if got := laggedCOR(target, cand, 2); got != 1 {
		t.Errorf("laggedCOR(lag=2) = %v, want 1", got)
	}
	if got := laggedCOR(target, cand, 1); got != 0 {
		t.Errorf("laggedCOR(lag=1) = %v, want 0", got)
	}
	if got := laggedCOR(target, cand, 0); got != 0 {
		t.Errorf("laggedCOR(lag=0) = %v, want 0 (COR of disjoint)", got)
	}
	if got := laggedCOR(nil, cand, 2); got != 0 {
		t.Errorf("laggedCOR empty = %v", got)
	}
}

func TestBestLaggedCOR(t *testing.T) {
	target := slotSeries(10, 20, 30, 40)
	cand := slotSeries(7, 17, 27, 2) // lag 3 matches 3 of 4
	lag, cor := BestLaggedCOR(one(target), one(cand), 10)
	if lag != 3 {
		t.Errorf("best lag = %d, want 3", lag)
	}
	if cor != 0.75 {
		t.Errorf("best COR = %v, want 0.75", cor)
	}
	lag, cor = BestLaggedCOR(one(nil), one(cand), 10)
	if lag != 0 || cor != 0 {
		t.Errorf("empty best = (%d, %v)", lag, cor)
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
	slices.Sort(out)
	return out
}
