package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG is a deterministic random stream. Each traffic source, flow, or other
// stochastic component should own its own stream, derived from a base seed
// and a component name, so that adding a component never perturbs the random
// numbers seen by the others.
//
// The stream for a seed is exactly math/rand's rand.New(rand.NewSource(seed))
// and is frozen: goldens and reports depend on it. It is produced lazily (see
// lazySource), so a stream that draws a handful of values costs a handful of
// multiplies, not a 607-word seeding.
type RNG struct {
	r    *rand.Rand // over lazy until the stream promotes itself, then over a math/rand source
	lazy lazySource
}

// NewRNG returns a stream seeded directly with seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{}
	g.lazy = lazySource{owner: g, x0: reduceSeed(seed)}
	g.r = rand.New(&g.lazy)
	return g
}

// DeriveRNG returns a stream whose seed mixes base with name via FNV-1a, so
// named substreams are stable and independent of creation order.
func DeriveRNG(base int64, name string) *RNG {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(base) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(name))
	return NewRNG(int64(h.Sum64()))
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Exp returns an exponentially distributed value with the given mean.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Geometric returns a geometrically distributed value on {1, 2, ...} with the
// given mean (mean must be >= 1). P(n) = p(1-p)^(n-1) with p = 1/mean.
func (g *RNG) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	// Inverse-transform sampling: n = ceil(ln(1-u)/ln(1-p)).
	u := g.r.Float64()
	n := int(math.Ceil(math.Log(1-u) / math.Log(1-p)))
	if n < 1 {
		n = 1
	}
	return n
}
