package stats

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand with the sampling distributions the workload generator
// needs. A dedicated type (rather than bare *rand.Rand) keeps every sampler
// in one place and makes generator code deterministic under a fixed seed.
type RNG struct {
	r *rand.Rand

	// expLambda memoizes Poisson's exp(-lambda) for the last lambda it was
	// called with: generators draw one count per slot at a constant rate.
	lambda, expLambda float64
}

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Reseed restarts g on seed: it then draws exactly the stream NewRNG(seed)
// would, without allocating a new source. A loop that needs one seeded
// stream per item reuses one RNG this way.
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// IntBetween returns a uniform sample in [lo, hi] inclusive. It panics if
// hi < lo, which indicates a generator configuration bug.
func (g *RNG) IntBetween(lo, hi int) int {
	if hi < lo {
		panic("stats: IntBetween with hi < lo")
	}
	return lo + g.r.Intn(hi-lo+1)
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Poisson returns a Poisson(lambda) sample. It uses Knuth's product method
// for small lambda and a normal approximation for large lambda, which is
// ample for per-minute invocation counts.
func (g *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation with continuity correction.
		n := int(math.Round(g.r.NormFloat64()*math.Sqrt(lambda) + lambda))
		if n < 0 {
			n = 0
		}
		return n
	}
	if lambda != g.lambda {
		g.lambda, g.expLambda = lambda, math.Exp(-lambda)
	}
	l := g.expLambda
	k := 0
	p := 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Exponential returns an Exp(rate) sample.
func (g *RNG) Exponential(rate float64) float64 {
	return g.r.ExpFloat64() / rate
}

// Pareto returns a Pareto(xm, alpha) sample: heavy-tailed with minimum xm.
// The invocation-count imbalance of Figure 3 is produced by drawing each
// function's base rate from a Pareto distribution.
func (g *RNG) Pareto(xm, alpha float64) float64 {
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Jitter returns base plus uniform noise in [-spread, +spread], clamped to
// be at least min.
func (g *RNG) Jitter(base, spread, min int) int {
	if spread <= 0 {
		if base < min {
			return min
		}
		return base
	}
	v := base + g.r.Intn(2*spread+1) - spread
	if v < min {
		v = min
	}
	return v
}

// WeightedChoice returns an index sampled proportionally to weights. It
// panics when weights is empty or sums to a non-positive value, which is a
// configuration error in the caller.
func (g *RNG) WeightedChoice(weights []float64) int {
	if len(weights) == 0 {
		panic("stats: WeightedChoice on empty weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("stats: WeightedChoice with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("stats: WeightedChoice with non-positive total weight")
	}
	u := g.r.Float64() * total
	var cum float64
	for i, w := range weights {
		cum += w
		if u <= cum {
			return i
		}
	}
	return len(weights) - 1
}

// SplitSeed draws the seed of a child stream that is independent of the
// parent's later draws. Seeding is the entirety of a split, so a structural
// pass can record one int64 per item and defer the child's construction
// (NewRNG, or Reseed of a reused RNG) until its draws are actually needed.
func (g *RNG) SplitSeed() int64 { return g.r.Int63() }
