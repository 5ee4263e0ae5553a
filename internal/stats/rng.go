package stats

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand with the sampling distributions the workload generator
// needs. A dedicated type (rather than bare *rand.Rand) keeps every sampler
// in one place and makes generator code deterministic under a fixed seed.
//
// Its stream is Go 1 math/rand's, rand.New(rand.NewSource(seed)), value for
// value. The source is a concrete copy of math/rand's (lfib), so the hot
// draws — Float64, Bool and Poisson's kernels — read it without an
// interface call; every other method goes through a rand.Rand over the
// same source and so stays math/rand's by construction.
type RNG struct {
	src lfib
	r   *rand.Rand // over &src

	// rates memoizes exp(-lambda) for the last two rates Poisson's kernels
	// were called with, the latest first: generators draw at one or two
	// alternating rates per function.
	rates [2]struct{ lambda, exp float64 }
}

// expNeg returns exp(-lambda), from rates or computed into rates[0].
func (g *RNG) expNeg(lambda float64) float64 {
	r := &g.rates
	if r[0].lambda != lambda {
		if r[1].lambda == lambda {
			r[0], r[1] = r[1], r[0]
		} else {
			r[1] = r[0]
			r[0].lambda, r[0].exp = lambda, math.Exp(-lambda)
		}
	}
	return r[0].exp
}

// retryFrom is the least Int63 whose Float64 division rounds up to 1, the
// draws rand.Rand.Float64 retries: the floats below 2⁶³ are 2¹⁰ apart, and
// the halfway point rounds to the even 2⁶³.
const retryFrom = 1<<63 - 1<<9

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{}
	g.src.Seed(seed)
	g.r = rand.New(&g.src)
	return g
}

// Reseed restarts g on seed: it then draws exactly the stream NewRNG(seed)
// would, without allocating a new source. A loop that needs one seeded
// stream per item reuses one RNG this way.
func (g *RNG) Reseed(seed int64) { g.src.Seed(seed) }

// Float64 returns a uniform sample in [0, 1): rand.Rand.Float64's Go 1
// value stream, including its retry when the division rounds up to 1.
func (g *RNG) Float64() float64 {
again:
	f := float64(g.src.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

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
func (g *RNG) Bool(p float64) bool { return g.Float64() < p }

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
	// The product loop is Float64 inlined over the source's registers,
	// with tap and feed held in locals until the draw ends.
	l := g.expNeg(lambda)
	s := &g.src
	vec := &s.vec
	tap, feed := uint(s.tap), uint(s.feed)
	k := 0
	p := 1.0
	for {
		tap, feed = lfibStep(tap, feed)
		x := vec[feed] + vec[tap]
		vec[feed] = x
		v := x & lfibMask
		if v >= retryFrom {
			continue
		}
		p *= float64(v) / (1 << 63)
		if p <= l {
			s.tap, s.feed = int(tap), int(feed)
			return k
		}
		k++
	}
}

// lfibStep moves tap and feed back one entry, from 0 to lfibLen-1.
func lfibStep(tap, feed uint) (uint, uint) {
	tap--
	if tap >= lfibLen {
		tap = lfibLen - 1
	}
	feed--
	if feed >= lfibLen {
		feed = lfibLen - 1
	}
	return tap, feed
}

// PoissonFill stores len(dst) successive Poisson(lambda) samples in dst:
// the values, and the stream left behind, of len(dst) Poisson calls. It is
// the form for a loop that draws one count per slot at one rate.
//
// Where the calls lose their time is the product loop's exit, which the
// branch predictor cannot learn at the rates per-slot loops use. So the
// kernel has no branch per sample: each draw multiplies into the running
// product, and a sample's end only selects what the next draw starts from
// and moves the output index.
func (g *RNG) PoissonFill(lambda float64, dst []int32) {
	if lambda <= 0 || lambda > 30 {
		for i := range dst {
			dst[i] = int32(g.Poisson(lambda))
		}
		return
	}
	s := &g.src
	vec := &s.vec
	tap, feed := uint(s.tap), uint(s.feed)
	// pb is the running product's bits: a non-negative float orders as its
	// bits do, so the end test and the selects stay in integer registers.
	lb := math.Float64bits(g.expNeg(lambda))
	var pb uint64
	end := true // the last draw ended a sample: the next one starts anew
	k := int32(0)
	for m := 0; m < len(dst); {
		tap, feed = lfibStep(tap, feed)
		x := vec[feed] + vec[tap]
		vec[feed] = x
		v := x & lfibMask
		if v >= retryFrom {
			continue
		}
		// Both candidates are computed first and each select is its own
		// statement: the compiler then emits conditional moves, not
		// branches.
		u := float64(v) / (1 << 63)
		next := math.Float64bits(math.Float64frombits(pb) * u)
		first := math.Float64bits(u)
		k++
		if end {
			next = first
		}
		if end {
			k = 0
		}
		pb = next
		end = pb <= lb
		dst[m] = k
		if end {
			m++
		}
	}
	s.tap, s.feed = int(tap), int(feed)
}

// Exponential returns an Exp(rate) sample.
func (g *RNG) Exponential(rate float64) float64 {
	return g.r.ExpFloat64() / rate
}

// Pareto returns a Pareto(xm, alpha) sample: heavy-tailed with minimum xm.
// The invocation-count imbalance of Figure 3 is produced by drawing each
// function's base rate from a Pareto distribution.
func (g *RNG) Pareto(xm, alpha float64) float64 {
	u := g.Float64()
	for u == 0 {
		u = g.Float64()
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
	u := g.Float64() * total
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
