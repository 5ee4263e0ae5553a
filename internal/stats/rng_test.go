package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(99)
	b := NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestPoissonMean(t *testing.T) {
	g := NewRNG(1)
	for _, lambda := range []float64{0.5, 3, 50} {
		n := 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(g.Poisson(lambda))
		}
		mean := sum / float64(n)
		tol := 4 * math.Sqrt(lambda/float64(n)) // ~4 sigma
		if math.Abs(mean-lambda) > tol {
			t.Errorf("Poisson(%v) sample mean = %v, want within %v", lambda, mean, tol)
		}
	}
	if got := g.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := g.Poisson(-1); got != 0 {
		t.Errorf("Poisson(-1) = %d, want 0", got)
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(2)
	rate := 2.0
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.Exponential(rate)
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Exp(2) sample mean = %v, want ~0.5", mean)
	}
}

func TestParetoMinimum(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if v := g.Pareto(2, 1.5); v < 2 {
			t.Fatalf("Pareto sample %v below xm=2", v)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	// With alpha close to 1 a noticeable fraction of samples should exceed
	// 10x the minimum — that tail is what creates Figure 3's imbalance.
	g := NewRNG(4)
	n := 10000
	over := 0
	for i := 0; i < n; i++ {
		if g.Pareto(1, 1.1) > 10 {
			over++
		}
	}
	frac := float64(over) / float64(n)
	if frac < 0.03 || frac > 0.2 {
		t.Errorf("P(X > 10) = %v, want roughly 10^-1.1", frac)
	}
}

func TestIntBetween(t *testing.T) {
	g := NewRNG(6)
	for i := 0; i < 1000; i++ {
		v := g.IntBetween(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntBetween out of range: %d", v)
		}
	}
	if v := g.IntBetween(4, 4); v != 4 {
		t.Errorf("IntBetween(4,4) = %d", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("IntBetween(5,4) should panic")
		}
	}()
	g.IntBetween(5, 4)
}

func TestJitter(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := g.Jitter(10, 3, 1)
		if v < 7 || v > 13 {
			t.Fatalf("Jitter out of range: %d", v)
		}
	}
	if v := g.Jitter(0, 0, 2); v != 2 {
		t.Errorf("Jitter min clamp = %d, want 2", v)
	}
	// min clamp with spread.
	for i := 0; i < 100; i++ {
		if v := g.Jitter(1, 5, 1); v < 1 {
			t.Fatalf("Jitter below min: %d", v)
		}
	}
}

func TestWeightedChoice(t *testing.T) {
	g := NewRNG(8)
	counts := make([]int, 3)
	for i := 0; i < 9000; i++ {
		counts[g.WeightedChoice([]float64{1, 2, 6})]++
	}
	if !(counts[2] > counts[1] && counts[1] > counts[0]) {
		t.Errorf("WeightedChoice distribution wrong: %v", counts)
	}
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("empty", func() { g.WeightedChoice(nil) })
	assertPanics("zero total", func() { g.WeightedChoice([]float64{0, 0}) })
	assertPanics("negative", func() { g.WeightedChoice([]float64{1, -1}) })
}

func TestSplitIndependence(t *testing.T) {
	g := NewRNG(10)
	child1 := g.Split()
	// The parent's subsequent draws must not change the child stream already
	// created; a second child from a fresh parent at the same point matches.
	h := NewRNG(10)
	child2 := h.Split()
	for i := 0; i < 50; i++ {
		if child1.Float64() != child2.Float64() {
			t.Fatal("Split children with identical lineage differ")
		}
	}
}

func TestBool(t *testing.T) {
	g := NewRNG(11)
	trues := 0
	n := 10000
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			trues++
		}
	}
	frac := float64(trues) / float64(n)
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
}

func TestPerm(t *testing.T) {
	g := NewRNG(13)
	p := g.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}
