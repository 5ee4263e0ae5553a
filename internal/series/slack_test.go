package series

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestTrimEnds(t *testing.T) {
	tests := []struct {
		name string
		in   []int
		want []int
	}{
		{"normal", []int{9, 5, 5, 5, 9}, []int{5, 5, 5}},
		{"too short", []int{1, 2}, nil},
		{"single", []int{1}, nil},
		{"empty", nil, nil},
		{"exactly three", []int{1, 2, 3}, []int{2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := TrimEnds(tt.in); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("TrimEnds(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestTrimEndsDoesNotMutate(t *testing.T) {
	in := []int{1, 2, 3, 4}
	out := TrimEnds(in)
	out[0] = 99
	if in[1] != 2 {
		t.Error("TrimEnds shares backing array with input")
	}
}

func TestMergeSmallWTsPaperExample(t *testing.T) {
	// The paper: (1439, 1438, 1, 1439, 1438, 1) becomes
	// (1439, 1439, 1439, 1439) — each stray 1 merges into the preceding
	// near-mode WT, reconstructing the daily period.
	in := []int{1439, 1438, 1, 1439, 1438, 1}
	got := MergeSmallWTs(in, 1, 0.1)
	want := []int{1439, 1438 + 1 + 1, 1439, 1438 + 1 + 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MergeSmallWTs = %v, want %v", got, want)
	}
	// All merged values are near-daily.
	for _, wt := range got {
		if wt < 1438 || wt > 1441 {
			t.Errorf("merged WT %d not near daily period", wt)
		}
	}
}

func TestMergeSmallWTsStopsAtNearMode(t *testing.T) {
	// A small WT followed directly by another near-mode WT: the small one
	// merges, then merging stops at the next near-mode value (rule 2).
	in := []int{100, 5, 100, 100}
	got := MergeSmallWTs(in, 1, 0.1)
	want := []int{106, 100, 100}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MergeSmallWTs = %v, want %v", got, want)
	}
}

func TestMergeSmallWTsNonMode(t *testing.T) {
	// WTs far from the mode are passed through untouched.
	in := []int{100, 100, 37, 100}
	got := MergeSmallWTs(in, 1, 0.1)
	if !reflect.DeepEqual(got, in) {
		t.Errorf("MergeSmallWTs = %v, want unchanged %v", got, in)
	}
}

func TestMergeSmallWTsEdge(t *testing.T) {
	if got := MergeSmallWTs(nil, 1, 0.1); got != nil {
		t.Errorf("MergeSmallWTs(nil) = %v", got)
	}
	// Mode <= 0 cannot happen with genuine WTs, but must not panic.
	got := MergeSmallWTs([]int{0, 0}, 1, 0.1)
	if !reflect.DeepEqual(got, []int{0, 0}) {
		t.Errorf("MergeSmallWTs zeros = %v", got)
	}
}

func TestMergeSmallWTsDoesNotMutate(t *testing.T) {
	in := []int{100, 100, 5, 100}
	snapshot := append([]int(nil), in...)
	MergeSmallWTs(in, 1, 0.1)
	if !reflect.DeepEqual(in, snapshot) {
		t.Error("MergeSmallWTs mutated its input")
	}
}

func TestSlackVariants(t *testing.T) {
	// Raw, trimmed, merged should all be distinct for this input.
	in := []int{7, 1439, 1438, 1, 1439, 3}
	variants := SlackVariants(in, 1, 0.1)
	if len(variants) != 3 {
		t.Fatalf("variants = %d, want 3: %v", len(variants), variants)
	}
	if !reflect.DeepEqual(variants[0], in) {
		t.Errorf("variant 0 = %v, want raw", variants[0])
	}
	if !reflect.DeepEqual(variants[1], []int{1439, 1438, 1, 1439}) {
		t.Errorf("variant 1 = %v", variants[1])
	}
	if !reflect.DeepEqual(variants[2], []int{1439, 1440, 1439}) {
		t.Errorf("variant 2 = %v", variants[2])
	}
}

func TestSlackVariantsShortInput(t *testing.T) {
	if got := SlackVariants(nil, 1, 0.1); len(got) != 0 {
		t.Errorf("SlackVariants(nil) = %v", got)
	}
	got := SlackVariants([]int{5}, 1, 0.1)
	if len(got) != 1 || !reflect.DeepEqual(got[0], []int{5}) {
		t.Errorf("SlackVariants single = %v", got)
	}
}

// Property: merging never increases sequence length and conserves
// "time plus absorbed slots": sum(out) >= sum(in), with equality when
// nothing merged.
func TestMergeSmallWTsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		in := make([]int, len(raw))
		for i, v := range raw {
			in[i] = int(v)%200 + 1
		}
		out := MergeSmallWTs(in, 1, 0.1)
		if len(out) > len(in) {
			return false
		}
		if stats.SumInts(out) < stats.SumInts(in) {
			return false
		}
		// Every absorbed WT adds exactly one extra slot.
		absorbed := len(in) - len(out)
		return stats.SumInts(out) == stats.SumInts(in)+int64(absorbed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mergeSmallWTsFlagged is the merge rule as first written: a flag per WT
// marks the ones already absorbed, and the scan consults it both to skip
// them and to stop absorbing. AppendMergedWTs drops the flags — an absorbed
// WT always sits directly after the WT that absorbed it, so resuming the
// scan past the absorbed run is the same rule — and this reference keeps
// that rewrite honest.
func mergeSmallWTsFlagged(wts []int, mode, closeTol int, smallFrac float64) []int {
	if mode <= 0 {
		return append([]int(nil), wts...)
	}
	isNearMode := func(wt int) bool {
		d := wt - mode
		if d < 0 {
			d = -d
		}
		return d <= closeTol
	}
	isSmall := func(wt int) bool {
		return float64(wt) <= smallFrac*float64(mode) && !isNearMode(wt)
	}
	merged := make([]bool, len(wts))
	var out []int
	for i, wt := range wts {
		if merged[i] {
			continue
		}
		if !isNearMode(wt) {
			out = append(out, wt)
			continue
		}
		total := wt
		for j := i + 1; j < len(wts) && isSmall(wts[j]) && !merged[j]; j++ {
			total += wts[j] + 1
			merged[j] = true
		}
		out = append(out, total)
	}
	return out
}

func TestAppendMergedWTsMatchesFlaggedReference(t *testing.T) {
	f := func(raw []uint8, modeSeed uint8, tol uint8) bool {
		in := make([]int, len(raw))
		for i, v := range raw {
			// Mostly a near-period value or a small artifact, so merges
			// actually happen; sometimes anything.
			switch v % 4 {
			case 0:
				in[i] = 40 + int(v)%3
			case 1:
				in[i] = 1 + int(v)%4
			default:
				in[i] = int(v) + 1
			}
		}
		for _, mode := range []int{0, 41, int(modeSeed) + 1} {
			for _, frac := range []float64{0.1, 0.5, 1.5} {
				want := mergeSmallWTsFlagged(in, mode, int(tol%3), frac)
				dst := make([]int, 0, len(in))
				got := AppendMergedWTs(dst, in, mode, int(tol%3), frac)
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
