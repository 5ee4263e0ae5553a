package predict

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/classify"
)

// nextWindows is the pre-warm rule written the obvious way, as the
// reference PrewarmWindowScan is tested against: the predicted invocation
// windows of a function last invoked at lastInvoked, as [lo, hi] slot pairs.
// Types without time predictions return nil.
func nextWindows(p *Predictor, profile *classify.Profile, lastInvoked int) [][2]int {
	points := func(values []int) [][2]int {
		var out [][2]int
		for _, v := range values {
			out = append(out, [2]int{lastInvoked + v, lastInvoked + v})
		}
		return out
	}
	switch profile.Type {
	case classify.TypeRegular, classify.TypeApproRegular:
		return points(profile.Values)
	case classify.TypeDense:
		if profile.RangeHi < profile.RangeLo {
			return nil
		}
		return [][2]int{{lastInvoked + profile.RangeLo, lastInvoked + profile.RangeHi}}
	case classify.TypePossible, classify.TypeNewlyPossible:
		if len(profile.Values) == 0 {
			return nil
		}
		lo, hi := slices.Min(profile.Values), slices.Max(profile.Values)
		if hi-lo > p.PossibleRangeMax {
			return points(profile.Values)
		}
		return [][2]int{{lastInvoked + lo, lastInvoked + hi}}
	default:
		return nil
	}
}

func TestNextWindowsRegular(t *testing.T) {
	p := NewPredictor()
	prof := &classify.Profile{Type: classify.TypeRegular, Values: []int{60}}
	got := nextWindows(p, prof, 100)
	want := [][2]int{{160, 160}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("windows = %v, want %v", got, want)
	}
}

func TestNextWindowsApproRegular(t *testing.T) {
	p := NewPredictor()
	prof := &classify.Profile{Type: classify.TypeApproRegular, Values: []int{10, 12, 14}}
	got := nextWindows(p, prof, 0)
	want := [][2]int{{10, 10}, {12, 12}, {14, 14}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("windows = %v, want %v", got, want)
	}
}

func TestNextWindowsDense(t *testing.T) {
	p := NewPredictor()
	prof := &classify.Profile{Type: classify.TypeDense, RangeLo: 1, RangeHi: 4}
	got := nextWindows(p, prof, 50)
	want := [][2]int{{51, 54}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("windows = %v, want %v", got, want)
	}
	// Inverted range -> nothing.
	bad := &classify.Profile{Type: classify.TypeDense, RangeLo: 4, RangeHi: 1}
	if got := nextWindows(p, bad, 0); got != nil {
		t.Errorf("inverted range -> %v", got)
	}
}

func TestNextWindowsPossible(t *testing.T) {
	p := NewPredictor()
	// Narrow range -> continuous interval.
	narrow := &classify.Profile{Type: classify.TypePossible, Values: []int{5, 8}}
	got := nextWindows(p, narrow, 0)
	want := [][2]int{{5, 8}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("narrow possible = %v, want %v", got, want)
	}
	// Wide range -> discrete points.
	wide := &classify.Profile{Type: classify.TypePossible, Values: []int{5, 500}}
	got = nextWindows(p, wide, 10)
	want = [][2]int{{15, 15}, {510, 510}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wide possible = %v, want %v", got, want)
	}
	// Newly-possible behaves like possible.
	newly := &classify.Profile{Type: classify.TypeNewlyPossible, Values: []int{5, 8}}
	if got := nextWindows(p, newly, 0); !reflect.DeepEqual(got, [][2]int{{5, 8}}) {
		t.Errorf("newly-possible = %v", got)
	}
	// No values -> nothing.
	empty := &classify.Profile{Type: classify.TypePossible}
	if got := nextWindows(p, empty, 0); got != nil {
		t.Errorf("empty possible = %v", got)
	}
}

func TestNextWindowsNonPredictive(t *testing.T) {
	p := NewPredictor()
	for _, typ := range []classify.Type{
		classify.TypeAlwaysWarm, classify.TypeSuccessive, classify.TypePulsed,
		classify.TypeCorrelated, classify.TypeUnknown,
	} {
		prof := &classify.Profile{Type: typ, Values: []int{5}}
		if got := nextWindows(p, prof, 0); got != nil {
			t.Errorf("%v -> %v, want nil", typ, got)
		}
	}
}

func TestShouldPrewarm(t *testing.T) {
	p := NewPredictor()
	prof := &classify.Profile{Type: classify.TypeRegular, Values: []int{60}}
	// Predicted at 160; theta 2 -> prewarm in [158, 162].
	cases := []struct {
		t    int
		want bool
	}{
		{157, false}, {158, true}, {160, true}, {162, true}, {163, false},
	}
	for _, c := range cases {
		if got := p.ShouldPrewarm(prof, 100, c.t, 2); got != c.want {
			t.Errorf("ShouldPrewarm(t=%d) = %v, want %v", c.t, got, c.want)
		}
	}
	// Zero theta: exact hit only.
	if p.ShouldPrewarm(prof, 100, 159, 0) {
		t.Error("theta=0 should not prewarm at 159")
	}
	if !p.ShouldPrewarm(prof, 100, 160, 0) {
		t.Error("theta=0 should prewarm at 160")
	}
}

func TestShouldPrewarmDenseWindow(t *testing.T) {
	p := NewPredictor()
	prof := &classify.Profile{Type: classify.TypeDense, RangeLo: 2, RangeHi: 5}
	// Window [102, 105], theta 1 -> [101, 106].
	if !p.ShouldPrewarm(prof, 100, 101, 1) {
		t.Error("dense window edge should prewarm")
	}
	if p.ShouldPrewarm(prof, 100, 107, 1) {
		t.Error("beyond dense window should not prewarm")
	}
}

// Property: PrewarmWindowScan, and everything read off it, agrees with a
// brute-force slot-by-slot evaluation of the nextWindows reference for every
// profile shape.
func TestShouldPrewarmAgreesWithWindows(t *testing.T) {
	p := NewPredictor()
	profiles := []*classify.Profile{
		{Type: classify.TypeRegular, Values: []int{60}},
		{Type: classify.TypeApproRegular, Values: []int{10, 12, 14}},
		// Overlapping windows in descending order: the off-chase needs
		// more than one pass.
		{Type: classify.TypeApproRegular, Values: []int{14, 12, 10}},
		{Type: classify.TypeDense, RangeLo: 1, RangeHi: 5},
		{Type: classify.TypeDense, RangeLo: 5, RangeHi: 1},
		{Type: classify.TypePossible, Values: []int{5, 8}},
		{Type: classify.TypePossible, Values: []int{5, 500}},
		// Spans of exactly PossibleRangeMax (narrow) and one more (wide).
		{Type: classify.TypePossible, Values: []int{5, 15}},
		{Type: classify.TypePossible, Values: []int{5, 16}},
		{Type: classify.TypePossible},
		{Type: classify.TypeNewlyPossible, Values: []int{3, 3, 9}},
		{Type: classify.TypeUnknown, Values: []int{4}},
		{Type: classify.TypeSuccessive},
	}
	// Every window ends before horizon, so every slot from there on is
	// uncovered.
	const slots, horizon = 600, 700
	for _, prof := range profiles {
		for last := 0; last < 3; last++ {
			for _, theta := range []int{0, 1, 2, 5} {
				covered := make([]bool, horizon+1)
				for _, w := range nextWindows(p, prof, last) {
					for s := max(w[0]-theta, 0); s <= w[1]+theta; s++ {
						covered[s] = true
					}
				}
				// firstOff[s] / firstOn[s]: the smallest uncovered / covered
				// slot >= s (-1: none).
				firstOff, firstOn := make([]int, horizon+1), make([]int, horizon+1)
				firstOff[horizon], firstOn[horizon] = horizon, -1
				for s := horizon - 1; s >= 0; s-- {
					firstOff[s], firstOn[s] = firstOff[s+1], firstOn[s+1]
					if covered[s] {
						firstOn[s] = s
					} else {
						firstOff[s] = s
					}
				}
				for tt := 0; tt < slots; tt++ {
					where := func() string {
						return fmt.Sprintf("profile %v last=%d t=%d theta=%d", prof.Type, last, tt, theta)
					}
					off, on := p.PrewarmWindowScan(prof, last, tt, theta)
					if off != firstOff[tt] || on != firstOn[tt+1] {
						t.Fatalf("%s: scan = (off %d, on %d), reference (off %d, on %d)",
							where(), off, on, firstOff[tt], firstOn[tt+1])
					}
					if got := p.ShouldPrewarm(prof, last, tt, theta); got != covered[tt] {
						t.Fatalf("%s: ShouldPrewarm = %v, reference %v", where(), got, covered[tt])
					}
					if got := p.NextPrewarmOn(prof, last, tt, theta); got != firstOn[tt] {
						t.Fatalf("%s: NextPrewarmOn = %d, reference %d", where(), got, firstOn[tt])
					}
					if got := p.NextPrewarmOff(prof, last, tt, theta); got != firstOff[tt] {
						t.Fatalf("%s: NextPrewarmOff = %d, reference %d", where(), got, firstOff[tt])
					}
				}
			}
		}
	}
}
