package stats

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestFrequencyTable(t *testing.T) {
	table := FrequencyTable([]int{3, 1, 3, 2, 3, 1})
	want := []ModeCount{{3, 3}, {1, 2}, {2, 1}}
	if len(table) != len(want) {
		t.Fatalf("table = %v, want %v", table, want)
	}
	for i := range want {
		if table[i] != want[i] {
			t.Errorf("table[%d] = %v, want %v", i, table[i], want[i])
		}
	}
}

func TestFrequencyTableTieBreak(t *testing.T) {
	// Equal counts must be ordered by ascending value for determinism.
	table := FrequencyTable([]int{5, 2, 5, 2})
	if table[0].Value != 2 || table[1].Value != 5 {
		t.Errorf("tie-break order = %v, want value-ascending", table)
	}
}

func TestFrequencyTableEmpty(t *testing.T) {
	if table := FrequencyTable(nil); table != nil {
		t.Errorf("FrequencyTable(nil) = %v, want nil", table)
	}
}

func TestModes(t *testing.T) {
	xs := []int{4, 4, 4, 7, 7, 9}
	if got := Modes(xs, 2); len(got) != 2 || got[0] != 4 || got[1] != 7 {
		t.Errorf("Modes = %v, want [4 7]", got)
	}
	if got := Modes(xs, 10); len(got) != 3 {
		t.Errorf("Modes with n>distinct = %v, want 3 values", got)
	}
	if got := Modes(nil, 3); len(got) != 0 {
		t.Errorf("Modes(nil) = %v, want empty", got)
	}
}

func TestMode(t *testing.T) {
	v, c := Mode([]int{1, 2, 2, 3})
	if v != 2 || c != 2 {
		t.Errorf("Mode = (%d, %d), want (2, 2)", v, c)
	}
	v, c = Mode(nil)
	if v != 0 || c != 0 {
		t.Errorf("Mode(nil) = (%d, %d), want (0, 0)", v, c)
	}
}

func TestModesCoverage(t *testing.T) {
	// (1439 x4, 3 x1): top-1 mode covers 4 of 5.
	xs := []int{1439, 1439, 1439, 1439, 3}
	if got := ModesCoverage(xs, 1); got != 4 {
		t.Errorf("ModesCoverage(1) = %d, want 4", got)
	}
	if got := ModesCoverage(xs, 2); got != 5 {
		t.Errorf("ModesCoverage(2) = %d, want 5", got)
	}
	if got := ModesCoverage(nil, 1); got != 0 {
		t.Errorf("ModesCoverage(nil) = %d, want 0", got)
	}
}

func TestModeRange(t *testing.T) {
	min, max, ok := ModeRange([]int{5, 5, 9, 9, 2}, 2)
	if !ok || min != 5 || max != 9 {
		t.Errorf("ModeRange = (%d, %d, %v), want (5, 9, true)", min, max, ok)
	}
	_, _, ok = ModeRange(nil, 2)
	if ok {
		t.Error("ModeRange(nil) ok = true, want false")
	}
}

func TestRepeatedValues(t *testing.T) {
	got := RepeatedValues([]int{8, 8, 8, 2, 2, 5})
	if len(got) != 2 || got[0] != 8 || got[1] != 2 {
		t.Errorf("RepeatedValues = %v, want [8 2]", got)
	}
	if got := RepeatedValues([]int{1, 2, 3}); len(got) != 0 {
		t.Errorf("RepeatedValues all-unique = %v, want empty", got)
	}
}

// Property: counts in the frequency table sum to len(xs) and are
// non-increasing.
func TestFrequencyTableInvariants(t *testing.T) {
	f := func(xs []int) bool {
		table := FrequencyTable(xs)
		total := 0
		for i, mc := range table {
			total += mc.Count
			if mc.Count <= 0 {
				return false
			}
			if i > 0 && table[i-1].Count < mc.Count {
				return false
			}
		}
		return total == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ModesCoverage is monotone in n and bounded by len(xs).
func TestModesCoverageMonotoneProperty(t *testing.T) {
	f := func(xs []int, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		a := ModesCoverage(xs, n)
		b := ModesCoverage(xs, n+1)
		return a <= b && b <= len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendFrequencyTableSortedReusesDst(t *testing.T) {
	buf := make([]ModeCount, 0, 8)
	first := AppendFrequencyTableSorted(buf, []int{1, 2, 2, 3, 3, 3})
	want := []ModeCount{{3, 3}, {2, 2}, {1, 1}}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("table = %v, want %v", first, want)
	}
	if &first[0] != &buf[:1][0] {
		t.Error("table did not reuse dst's backing array")
	}
	// Appending after existing entries sorts only the new table.
	both := AppendFrequencyTableSorted(first, []int{7, 9, 9})
	if want := append(want, ModeCount{9, 2}, ModeCount{7, 1}); !reflect.DeepEqual(both, want) {
		t.Errorf("appended table = %v, want %v", both, want)
	}
	if got := AppendFrequencyTableSorted(nil, nil); got != nil {
		t.Errorf("empty table = %v, want nil", got)
	}
}
