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

// TestReseedMatchesNewRNG holds Reseed to its contract: a reused RNG
// reseeded on s draws exactly the stream NewRNG(s) draws, whatever it drew
// before. The draws interleave every sampler the generator uses, including
// Poisson across lambda changes (its exp(-lambda) memo must not leak across
// rates) and above 30 (the normal approximation), and the reused RNG is
// reseeded mid-stream.
func TestReseedMatchesNewRNG(t *testing.T) {
	draws := func(g *RNG, n int) []float64 {
		out := make([]float64, 0, 8*n)
		lambdas := []float64{0.4, 0.4, 3, 45, 0.4, 12.5, 3}
		for i := 0; i < n; i++ {
			out = append(out,
				g.Float64(),
				float64(g.Intn(97)),
				float64(g.Poisson(lambdas[i%len(lambdas)])),
				g.Exponential(0.25),
				float64(g.Jitter(300, 5, 1)),
			)
			if g.Bool(0.5) {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		}
		return out
	}
	reused := NewRNG(1)
	for _, seed := range []int64{7, 7, 123456789, -3, 0} {
		want := draws(NewRNG(seed), 200)
		// A stale memo and a half-consumed stream before the reseed.
		draws(reused, 13)
		reused.Reseed(seed)
		first := draws(reused, 100)
		reused.Reseed(seed)
		got := draws(reused, 200)
		for i := range want {
			if got[i] != want[i] || (i < len(first) && first[i] != want[i]) {
				t.Fatalf("seed %d: draw %d after Reseed = %v, NewRNG drew %v", seed, i, got[i], want[i])
			}
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
