package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramAddAndTotals(t *testing.T) {
	h := NewHistogram(0, 1, 4) // bins [0,1) [1,2) [2,3) [3,4)
	for _, x := range []float64{0.5, 1.5, 1.9, 3.2, -1, 7} {
		h.Add(x)
	}
	if got := h.Total(); got != 4 {
		t.Errorf("Total = %d, want 4", got)
	}
	if h.UnderflowCount != 1 || h.OverflowCount != 1 {
		t.Errorf("OOB = (%d, %d), want (1, 1)", h.UnderflowCount, h.OverflowCount)
	}
	if got := h.TotalWithOOB(); got != 6 {
		t.Errorf("TotalWithOOB = %d, want 6", got)
	}
	if got := h.OOBFraction(); !almostEqual(got, 2.0/6.0, 1e-12) {
		t.Errorf("OOBFraction = %v", got)
	}
	if h.Counts[1] != 2 {
		t.Errorf("bin 1 count = %d, want 2", h.Counts[1])
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	// 10 observations in bins 0..9, one each.
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	p5, ok := h.Percentile(0.05)
	if !ok || p5 != 0 {
		t.Errorf("P5 = (%v, %v), want (0, true)", p5, ok)
	}
	p99, _ := h.Percentile(0.99)
	if p99 != 9 {
		t.Errorf("P99 = %v, want 9", p99)
	}
	p50, _ := h.Percentile(0.5)
	if p50 != 4 {
		t.Errorf("P50 = %v, want 4", p50)
	}
}

func TestHistogramPercentileEmpty(t *testing.T) {
	h := NewHistogram(0, 1, 3)
	if _, ok := h.Percentile(0.5); ok {
		t.Error("Percentile on empty histogram should return ok=false")
	}
	// OOB-only observations also leave the in-range histogram empty.
	h.Add(-5)
	if _, ok := h.Percentile(0.5); ok {
		t.Error("Percentile with only OOB should return ok=false")
	}
}

func TestHistogramCV(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	for i := 0; i < 20; i++ {
		h.Add(4.5) // constant -> CV 0
	}
	cv, ok := h.CV()
	if !ok || cv != 0 {
		t.Errorf("CV constant = (%v, %v), want (0, true)", cv, ok)
	}
	h2 := NewHistogram(0, 1, 10)
	if _, ok := h2.CV(); ok {
		t.Error("CV on empty histogram should return ok=false")
	}
	h2.Add(0.5)
	h2.Add(9.5)
	cv2, _ := h2.CV()
	if cv2 <= 0 {
		t.Errorf("CV spread = %v, want > 0", cv2)
	}
}

func TestNewHistogramPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("zero bins", func() { NewHistogram(0, 1, 0) })
	assertPanics("zero width", func() { NewHistogram(0, 0, 5) })
}

func TestCountBuckets(t *testing.T) {
	totals := []int64{0, 1, 5, 10, 99, 100, 1000000}
	got := CountBuckets(totals, 4)
	// zeros:1, [1,10):2, [10,100):2, [100,1000):1, [1000,10000):0, >=10^4 capped:1
	want := []int64{1, 2, 2, 1, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// Property: every added in-range observation lands in exactly one bin.
func TestHistogramConservationProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewHistogram(0, 1, 100)
		for _, v := range raw {
			h.Add(float64(v % 200)) // half in range, half overflow
		}
		return h.TotalWithOOB() == int64(len(raw))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Percentile is monotone in p.
func TestHistogramPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint8, p1, p2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram(0, 1, 256)
		for _, v := range raw {
			h.Add(float64(v))
		}
		clamp := func(p float64) float64 {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				return 0.5
			}
			return math.Abs(math.Mod(p, 1))
		}
		p1, p2 = clamp(p1), clamp(p2)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		a, _ := h.Percentile(p1)
		b, _ := h.Percentile(p2)
		return a <= b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
