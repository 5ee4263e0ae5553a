package stats

import (
	"cmp"
	"slices"
	"sort"
)

// ModeCount is one entry of a frequency table: a value and how many times it
// occurs.
type ModeCount struct {
	Value int
	Count int
}

// FrequencyTable returns the distinct values of xs with their occurrence
// counts, ordered by descending count and ascending value among ties. The
// deterministic tie-break keeps categorization reproducible run to run.
// Counting runs over a sorted copy rather than a hash map: the offline
// categorization calls this for every function (several times under the
// slack cascade), and an int sort plus a run-length scan is much cheaper
// than map inserts at these sizes.
func FrequencyTable(xs []int) []ModeCount {
	if len(xs) == 0 {
		return nil
	}
	sorted := make([]int, len(xs))
	copy(sorted, xs)
	sort.Ints(sorted)
	return FrequencyTableSorted(sorted)
}

// FrequencyTableSorted is FrequencyTable over an already ascending-sorted
// slice, for callers that have sorted the data anyway. Behaviour on
// unsorted input is undefined.
func FrequencyTableSorted(sorted []int) []ModeCount {
	return AppendFrequencyTableSorted(nil, sorted)
}

// AppendFrequencyTableSorted appends FrequencyTableSorted(sorted) to dst, so
// a caller building many tables can reuse one backing array. The order
// (descending count, ascending value) is total, so the table is the same
// whatever the sort does with equal elements.
func AppendFrequencyTableSorted(dst []ModeCount, sorted []int) []ModeCount {
	base := len(dst)
	runStart := 0
	for i := 1; i <= len(sorted); i++ {
		if i == len(sorted) || sorted[i] != sorted[runStart] {
			dst = append(dst, ModeCount{Value: sorted[runStart], Count: i - runStart})
			runStart = i
		}
	}
	slices.SortFunc(dst[base:], func(a, b ModeCount) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return cmp.Compare(a.Value, b.Value)
	})
	return dst
}

// Modes returns the n most frequent values of xs (fewer if xs has fewer
// distinct values), most frequent first. This implements the paper's
// Mode_n({WT}) operator used by the appro-regular and dense definitions.
func Modes(xs []int, n int) []int {
	table := FrequencyTable(xs)
	if n > len(table) {
		n = len(table)
	}
	out := make([]int, 0, n)
	for _, mc := range table[:n] {
		out = append(out, mc.Value)
	}
	return out
}

// Mode returns the single most frequent value of xs and its count. For an
// empty slice it returns (0, 0).
func Mode(xs []int) (value, count int) {
	table := FrequencyTable(xs)
	if len(table) == 0 {
		return 0, 0
	}
	return table[0].Value, table[0].Count
}

// ModesCoverage returns the total occurrence count of the n most frequent
// values of xs. The appro-regular definition requires this to reach 90% of
// the sequence length.
func ModesCoverage(xs []int, n int) int {
	table := FrequencyTable(xs)
	if n > len(table) {
		n = len(table)
	}
	total := 0
	for _, mc := range table[:n] {
		total += mc.Count
	}
	return total
}

// ModeRange returns [min, max] over the k most frequent values of xs. This is
// the "dense" type's predictive-value range. ok is false when xs is empty.
func ModeRange(xs []int, k int) (min, max int, ok bool) {
	return TableRange(FrequencyTable(xs), k)
}

// TableRange is ModeRange read off an already built frequency table: [min,
// max] over the values of its first k entries.
func TableRange(table []ModeCount, k int) (min, max int, ok bool) {
	if k > len(table) {
		k = len(table)
	}
	if k <= 0 {
		return 0, 0, false
	}
	min, max = table[0].Value, table[0].Value
	for _, mc := range table[1:k] {
		if mc.Value < min {
			min = mc.Value
		}
		if mc.Value > max {
			max = mc.Value
		}
	}
	return min, max, true
}

// RepeatedValues returns the values of xs occurring strictly more than once,
// most frequent first. The "possible" type uses these as predictive values.
func RepeatedValues(xs []int) []int {
	table := FrequencyTable(xs)
	var out []int
	for _, mc := range table {
		if mc.Count > 1 {
			out = append(out, mc.Value)
		}
	}
	return out
}
