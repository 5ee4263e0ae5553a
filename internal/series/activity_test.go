package series

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestExtractPaperExample(t *testing.T) {
	// The worked example from Section IV of the paper.
	counts := []int{28, 0, 12, 1, 0, 0, 0, 7}
	a := Extract(counts)
	if !reflect.DeepEqual(a.WT, []int{1, 3}) {
		t.Errorf("WT = %v, want [1 3]", a.WT)
	}
	if !reflect.DeepEqual(a.AT, []int{1, 2, 1}) {
		t.Errorf("AT = %v, want [1 2 1]", a.AT)
	}
	if !reflect.DeepEqual(a.AN, []int{28, 13, 7}) {
		t.Errorf("AN = %v, want [28 13 7]", a.AN)
	}
	if a.Invocations != 48 {
		t.Errorf("Invocations = %d, want 48", a.Invocations)
	}
}

func TestExtractEdges(t *testing.T) {
	tests := []struct {
		name   string
		counts []int
		wt     []int
		at     []int
		an     []int
	}{
		{"empty", nil, nil, nil, nil},
		{"all idle", []int{0, 0, 0}, nil, nil, nil},
		{"all active", []int{1, 2, 3}, nil, []int{3}, []int{6}},
		{"leading idle", []int{0, 0, 5}, nil, []int{1}, []int{5}},
		{"trailing idle", []int{5, 0, 0}, nil, []int{1}, []int{5}},
		{"single slot", []int{9}, nil, []int{1}, []int{9}},
		{"two runs", []int{1, 0, 0, 1}, []int{2}, []int{1, 1}, []int{1, 1}},
		{"negative treated as zero", []int{1, -5, 1}, []int{1}, []int{1, 1}, []int{1, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := Extract(tt.counts)
			if !reflect.DeepEqual(a.WT, tt.wt) {
				t.Errorf("WT = %v, want %v", a.WT, tt.wt)
			}
			if !reflect.DeepEqual(a.AT, tt.at) {
				t.Errorf("AT = %v, want %v", a.AT, tt.at)
			}
			if !reflect.DeepEqual(a.AN, tt.an) {
				t.Errorf("AN = %v, want %v", a.AN, tt.an)
			}
		})
	}
}

func TestActivityDerived(t *testing.T) {
	a := Extract([]int{1, 0, 1, 1, 0, 0, 2})
	if got := a.ActiveSlots(); got != 4 {
		t.Errorf("ActiveSlots = %d, want 4", got)
	}
	if got := a.TotalWT(); got != 3 {
		t.Errorf("TotalWT = %d, want 3", got)
	}
	if a.InvokedEverySlot() {
		t.Error("InvokedEverySlot = true, want false")
	}
	full := Extract([]int{1, 1})
	if !full.InvokedEverySlot() {
		t.Error("InvokedEverySlot = false for fully active sequence")
	}
	empty := Extract(nil)
	if empty.InvokedEverySlot() {
		t.Error("InvokedEverySlot = true for empty sequence")
	}
}

func TestInvokedSlots(t *testing.T) {
	got := InvokedSlots([]int{0, 2, 0, 1})
	if !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("InvokedSlots = %v", got)
	}
	if got := InvokedSlots([]int{0}); got != nil {
		t.Errorf("InvokedSlots all-idle = %v, want nil", got)
	}
}

// Property: slot accounting is conserved:
// leading + trailing + sum(WT) + sum(AT) == len(counts), the idle ends
// counted off the sequence itself (a never-invoked one is all leading idle).
func TestExtractConservationProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]int, len(raw))
		for i, v := range raw {
			counts[i] = int(v % 4) // mix of zeros and small counts
		}
		leading := 0
		for leading < len(counts) && counts[leading] == 0 {
			leading++
		}
		trailing := 0
		for trailing < len(counts)-leading && counts[len(counts)-1-trailing] == 0 {
			trailing++
		}
		a := Extract(counts)
		return leading+trailing+a.TotalWT()+a.ActiveSlots() == len(counts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: WT has exactly one fewer element than AT when there are active
// runs (gaps sit strictly between runs), and AT and AN are parallel.
func TestExtractStructureProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]int, len(raw))
		for i, v := range raw {
			counts[i] = int(v % 3)
		}
		a := Extract(counts)
		if len(a.AT) != len(a.AN) {
			return false
		}
		if len(a.AT) == 0 {
			return len(a.WT) == 0
		}
		return len(a.WT) == len(a.AT)-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: total invocations match the raw sum, and every AN entry is
// positive.
func TestExtractInvocationSumProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]int, len(raw))
		sum := 0
		for i, v := range raw {
			counts[i] = int(v % 5)
			sum += counts[i]
		}
		a := Extract(counts)
		if a.Invocations != sum {
			return false
		}
		for _, an := range a.AN {
			if an <= 0 {
				return false
			}
		}
		for _, wt := range a.WT {
			if wt <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
