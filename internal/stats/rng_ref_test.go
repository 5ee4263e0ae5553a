package stats

import (
	"math"
	"math/rand"
	"testing"
)

// This file keeps math/rand as the oracle of RNG: refRNG is RNG as it was
// written over rand.New(rand.NewSource(seed)), and every RNG method must
// return what refRNG's does, call for call, across reseeds.

var _ rand.Source64 = (*lfib)(nil)

type refRNG struct {
	r                 *rand.Rand
	lambda, expLambda float64
}

func newRefRNG(seed int64) *refRNG { return &refRNG{r: rand.New(rand.NewSource(seed))} }

func (g *refRNG) Reseed(seed int64)                { g.r.Seed(seed) }
func (g *refRNG) Float64() float64                 { return g.r.Float64() }
func (g *refRNG) Intn(n int) int                   { return g.r.Intn(n) }
func (g *refRNG) IntBetween(lo, hi int) int        { return lo + g.r.Intn(hi-lo+1) }
func (g *refRNG) Bool(p float64) bool              { return g.r.Float64() < p }
func (g *refRNG) Exponential(rate float64) float64 { return g.r.ExpFloat64() / rate }
func (g *refRNG) SplitSeed() int64                 { return g.r.Int63() }

func (g *refRNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
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

func (g *refRNG) Pareto(xm, alpha float64) float64 {
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

func (g *refRNG) Jitter(base, spread, min int) int {
	if spread <= 0 {
		return max(base, min)
	}
	return max(base+g.r.Intn(2*spread+1)-spread, min)
}

func (g *refRNG) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
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

// edgeSeeds straddle every branch of Seed's reduction: zero (replaced by
// 89482311), the modulus 2³¹−1 and its neighbours, negatives, and the
// int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 42, 89482311, -89482311,
	int32max - 1, int32max, int32max + 1, -int32max, -int32max - 1,
	2 * int32max, 1 << 31, 1<<62 + 12345,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
}

// rngOps is the number of distinct operations applyOp dispatches.
const rngOps = 12

// opLambda maps an op's argument to a Poisson rate: from -2 through 61.75
// (the non-positive shortcut, Knuth's product loop and the normal
// approximation above 30), and for a third of the arguments a rate below
// 0.07, where nearly every sample is 0.
func opLambda(a int) float64 {
	if a%3 == 0 {
		return float64(a) / 4096
	}
	return float64(a-8) / 4
}

// applyOp runs operation op with parameter arg on both generators and
// reports the first disagreement as "what", or "" when they agree.
func applyOp(g *RNG, ref *refRNG, op, arg byte) (what string, got, want float64) {
	a := int(arg)
	switch op % rngOps {
	case 0:
		return "Float64", g.Float64(), ref.Float64()
	case 1:
		n := 1 + a
		if a&0x80 != 0 {
			n = 1<<40 + a // Int63n's range
		}
		return "Intn", float64(g.Intn(n)), float64(ref.Intn(n))
	case 2:
		return "IntBetween", float64(g.IntBetween(a-100, a)), float64(ref.IntBetween(a-100, a))
	case 3:
		p := float64(a) / 255
		return "Bool", b2f(g.Bool(p)), b2f(ref.Bool(p))
	case 4:
		lambda := opLambda(a)
		return "Poisson", float64(g.Poisson(lambda)), float64(ref.Poisson(lambda))
	case 5:
		rate := 0.01 + float64(a)/16
		return "Exponential", g.Exponential(rate), ref.Exponential(rate)
	case 6:
		alpha := 0.5 + float64(a)/64
		return "Pareto", g.Pareto(0.5, alpha), ref.Pareto(0.5, alpha)
	case 7:
		base, spread, min := a, a%5, a/2
		return "Jitter", float64(g.Jitter(base, spread, min)), float64(ref.Jitter(base, spread, min))
	case 8:
		w := []float64{float64(a & 3), float64(a >> 2 & 7), 0.5, float64(a >> 5)}
		return "WeightedChoice", float64(g.WeightedChoice(w)), float64(ref.WeightedChoice(w))
	case 9:
		return "SplitSeed", float64(g.SplitSeed()), float64(ref.SplitSeed())
	case 10:
		lambda := opLambda(a)
		dst := make([]int32, a%37)
		g.PoissonFill(lambda, dst)
		for _, got := range dst {
			if want := ref.Poisson(lambda); int(got) != want {
				return "PoissonFill", float64(got), float64(want)
			}
		}
		return "", 0, 0
	default:
		seed := edgeSeeds[a%len(edgeSeeds)] + int64(a)
		g.Reseed(seed)
		ref.Reseed(seed)
		return "", 0, 0
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func TestRNGMatchesMathRand(t *testing.T) {
	prog := rand.New(rand.NewSource(7))
	for _, seed := range edgeSeeds {
		g, ref := NewRNG(seed), newRefRNG(seed)
		for i := 0; i < 20000; i++ {
			op, arg := byte(prog.Intn(rngOps)), byte(prog.Intn(256))
			if what, got, want := applyOp(g, ref, op, arg); got != want {
				t.Fatalf("seed %d, op %d: %s(arg %d) = %v, math/rand %v", seed, i, what, arg, got, want)
			}
		}
	}
}

// TestLfibMatchesRngSource holds the source itself to math/rand's over the
// edge seeds and a spread of others: the first register refill and past it,
// through Uint64 and Int63 alike.
func TestLfibMatchesRngSource(t *testing.T) {
	seeds := append([]int64(nil), edgeSeeds...)
	for x := int64(3); x < 1<<62; x = x*7 + 1 {
		seeds = append(seeds, x, -x)
	}
	var s lfib
	for _, seed := range seeds {
		s.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 2*lfibLen; i++ {
			if i%2 == 0 {
				if got, want := s.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d, draw %d: Uint64 = %d, math/rand %d", seed, i, got, want)
				}
			} else if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d, draw %d: Int63 = %d, math/rand %d", seed, i, got, want)
			}
		}
	}
}

// TestSeedrandMatchesSchrage compares the Mersenne fold to math/rand's
// Schrage step at both ends of its domain and across it.
func TestSeedrandMatchesSchrage(t *testing.T) {
	schrage := func(x int32) int32 {
		const a, q, r = 48271, 44488, 3399
		hi, lo := x/q, x%q
		x = a*lo - r*hi
		if x < 0 {
			x += int32max
		}
		return x
	}
	check := func(x int32) {
		if got, want := seedrand(uint64(x)), schrage(x); got != uint64(want) {
			t.Fatalf("seedrand(%d) = %d, Schrage %d", x, got, want)
		}
	}
	for x := int32(1); x < 1<<16; x++ {
		check(x)
		check(int32max - x)
	}
	for x := int64(1); x < int32max; x += 2654435 {
		check(int32(x))
	}
}

// TestSeedMulMatchesModulo compares the Mersenne fold to a plain modulo
// (the product fits 62 bits) at the domain's ends and across it, with the
// multipliers seedPow holds.
func TestSeedMulMatchesModulo(t *testing.T) {
	ys := []uint64{1, 2, 48271, int32max - 2, int32max - 1}
	for i := 0; i < lfibLen; i += 50 {
		ys = append(ys, uint64(seedPow[i][0]), uint64(seedPow[i][2]))
	}
	for _, y := range ys {
		for _, x := range []uint64{1, 2, 3, 1 << 30, int32max - 2, int32max - 1} {
			if got, want := seedMul(x, y), x*y%int32max; got != want {
				t.Fatalf("seedMul(%d, %d) = %d, want %d", x, y, got, want)
			}
		}
		for x := uint64(1); x < int32max; x += 7654321 {
			if got, want := seedMul(x, y), x*y%int32max; got != want {
				t.Fatalf("seedMul(%d, %d) = %d, want %d", x, y, got, want)
			}
		}
	}
}

// TestFloat64RetryOnOne plants a register pair whose sum is an Int63 whose
// division rounds up to 1, the largest (2⁶³−1) and the least (retryFrom),
// or the one below them that does not, and checks that Float64 and
// Poisson's kernels skip it exactly when rand.Rand.Float64 does over the
// same state.
func TestFloat64RetryOnOne(t *testing.T) {
	if float64(uint64(retryFrom))/(1<<63) != 1 || float64(uint64(retryFrom-1))/(1<<63) == 1 {
		t.Fatalf("retryFrom %d is not where Float64 starts rounding to 1", uint64(retryFrom))
	}
	g := NewRNG(0)
	for _, sum := range []int64{lfibMask, retryFrom, retryFrom - 1} {
		plant := func(g *RNG) {
			g.Reseed(5)
			g.src.vec[lfibLen-lfibTap-1] = sum - 11
			g.src.vec[lfibLen-1] = 11
		}
		plant(g)
		oracle := g.src
		r := rand.New(&oracle)
		for i := 0; i < 3; i++ {
			if got, want := g.Float64(), r.Float64(); got != want || got == 1 {
				t.Fatalf("plant %#x: Float64 draw %d = %v, rand.Rand %v", sum, i, got, want)
			}
		}
		// Poisson's kernels, each from the planted state: the per-call
		// product loop and a fill.
		for _, c := range []struct {
			name   string
			lambda float64
			draw   func(lambda float64) []int
		}{
			{"Poisson", 4, func(lambda float64) []int { return []int{g.Poisson(lambda)} }},
			{"PoissonFill", 4, func(lambda float64) []int {
				dst := make([]int32, 5)
				g.PoissonFill(lambda, dst)
				out := make([]int, len(dst))
				for i, k := range dst {
					out[i] = int(k)
				}
				return out
			}},
		} {
			plant(g)
			oracle = g.src
			ref := &refRNG{r: rand.New(&oracle)}
			for i := 0; i < 50; i++ {
				for _, got := range c.draw(c.lambda) {
					if want := ref.Poisson(c.lambda); got != want {
						t.Fatalf("plant %#x: %s(%v) draw %d = %d, reference %d", sum, c.name, c.lambda, i, got, want)
					}
				}
			}
		}
	}
}

// FuzzRNGMatchesMathRand runs an arbitrary program of (op, arg) byte pairs
// from an arbitrary seed on RNG and on the math/rand oracle.
func FuzzRNGMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, []byte{0, 0, 4, 40, 4, 255, 5, 3, 10, 7, 6, 1, 8, 200, 9, 0, 1, 200})
	}
	f.Add(int64(1), make([]byte, 64))
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		g, ref := NewRNG(seed), newRefRNG(seed)
		for i := 0; i+1 < len(prog); i += 2 {
			if what, got, want := applyOp(g, ref, prog[i], prog[i+1]); got != want {
				t.Fatalf("op %d: %s(arg %d) = %v, math/rand %v", i/2, what, prog[i+1], got, want)
			}
		}
		if got, want := g.SplitSeed(), ref.SplitSeed(); got != want {
			t.Fatalf("after the program: SplitSeed = %d, math/rand %d", got, want)
		}
	})
}

// The benchmarks time each layer against its math/rand form, so a change in
// generation speed can be located: seeding (one Reseed per generated
// function) and the per-slot Poisson draw at a sparse, a busy and a dense
// rate, one call per sample and as blocks (PoissonFill). Each reports ns
// per sample.

func BenchmarkRNGSeed(b *testing.B) {
	b.Run("stats", func(b *testing.B) {
		g := NewRNG(0)
		for i := 0; i < b.N; i++ {
			g.Reseed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		ref := newRefRNG(0)
		for i := 0; i < b.N; i++ {
			ref.Reseed(int64(i))
		}
	})
}

func BenchmarkPoisson(b *testing.B) {
	for _, c := range []struct {
		name   string
		lambda float64
	}{{"sparse", 0.0004}, {"busy", 0.7}, {"dense", 5}} {
		b.Run(c.name+"/stats", func(b *testing.B) {
			g := NewRNG(1)
			n := 0
			for i := 0; i < b.N; i++ {
				n += g.Poisson(c.lambda)
			}
			sink = n
		})
		b.Run(c.name+"/fill", func(b *testing.B) {
			g := NewRNG(1)
			var dst [256]int32
			for i := 0; i < b.N; i += len(dst) {
				g.PoissonFill(c.lambda, dst[:min(len(dst), b.N-i)])
			}
			sink = int(dst[0])
		})
		b.Run(c.name+"/math-rand", func(b *testing.B) {
			ref := newRefRNG(1)
			n := 0
			for i := 0; i < b.N; i++ {
				n += ref.Poisson(c.lambda)
			}
			sink = n
		})
	}
}

var sink int
