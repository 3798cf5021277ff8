package sim

import (
	"math"
	"math/rand"
	"strconv"
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
	r    rand.Rand // over lazy until the stream promotes itself, then over a math/rand source
	lazy lazySource
}

// NewRNG returns a stream seeded directly with seed.
func NewRNG(seed int64) *RNG {
	g := new(RNG)
	g.Init(seed)
	return g
}

// Init makes g, in place, the stream NewRNG(seed) returns — for a caller
// that holds its RNG inside a larger struct and so spares the allocation.
// An RNG points into itself, so it must not be copied once initialised.
func (g *RNG) Init(seed int64) {
	g.lazy = lazySource{owner: g, x0: reduceSeed(seed)}
	g.r = *rand.New(&g.lazy)
}

// DeriveRNG returns a stream whose seed mixes base with name via FNV-1a, so
// named substreams are stable and independent of creation order.
func DeriveRNG(base int64, name string) *RNG {
	return NewRNG(NewFamily(base, name).Seed())
}

// FNV-1a, 64-bit: hash/fnv's constants, applied byte by byte without its
// hash.Hash allocation.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Family is the FNV-1a state after base ‖ prefix: the common part of the
// seeds of the streams DeriveRNG(base, prefix+suffix) names. A churn derives
// one stream per call this way, from the call's number, without building the
// name.
type Family struct{ h uint64 }

// NewFamily hashes base and prefix once.
func NewFamily(base int64, prefix string) Family {
	h := uint64(fnvOffset)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(uint64(base)>>(8*i)))) * fnvPrime
	}
	for i := 0; i < len(prefix); i++ {
		h = (h ^ uint64(prefix[i])) * fnvPrime
	}
	return Family{h}
}

// Seed returns the seed of the family's own stream: DeriveRNG(base, prefix)
// starts from it.
func (f Family) Seed() int64 { return int64(f.h) }

// SeedOf returns the seed DeriveRNG(base, prefix+decimal(k)) starts from,
// hashing k's decimal digits in place.
func (f Family) SeedOf(k int64) int64 {
	var buf [20]byte
	for _, c := range strconv.AppendInt(buf[:0], k, 10) {
		f.h = (f.h ^ uint64(c)) * fnvPrime
	}
	return int64(f.h)
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
	return float64(g.r.ExpFloat64() * mean)
}

// Geometric returns a geometrically distributed value on {1, 2, ...} with the
// given mean (mean must be >= 1). P(n) = p(1-p)^(n-1) with p = 1/mean.
func (g *RNG) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	// Inverse-transform sampling: n = ceil(ln(1-u)/ln(1-p)).
	// The conversion keeps Float64's inlined scaling from fusing into 1-u.
	u := float64(g.r.Float64())
	n := int(math.Ceil(math.Log(1-u) / math.Log(1-p)))
	if n < 1 {
		n = 1
	}
	return n
}
