// Package tokenbucket implements the paper's traffic filter (Section 4): a
// token bucket (r, b) fills with tokens at rate r up to depth b; a packet of
// size p conforms if at least p tokens are present when it is generated.
//
// Units are deliberately abstract: "tokens" may be packets (the paper's
// simulations use an (A, 50) bucket counted in packets) or bits. The filter
// is the only isolation mechanism predicted service relies on: it is
// enforced once at the edge of the network, never inside (Section 8).
package tokenbucket

import "math"

// Epsilon is the conformance slack: a packet conforms when the bucket holds
// at least size-Epsilon tokens, absorbing float rounding in long refill
// chains. Exported so inlined per-member buckets (core's predicted-flow
// aggregation) apply the exact same test as Bucket.Take.
const Epsilon = 1e-12

// Bucket is a token bucket filter. Create one with New; the bucket starts
// full, matching the paper's recurrence n₀ = b.
type Bucket struct {
	rate   float64 // tokens per second
	depth  float64 // maximum tokens
	tokens float64
	last   float64 // time of last update
}

// New returns a full bucket with the given rate (tokens/second) and depth.
func New(rate, depth float64) *Bucket {
	if rate <= 0 || depth <= 0 {
		panic("tokenbucket: rate and depth must be positive")
	}
	return &Bucket{rate: rate, depth: depth, tokens: depth}
}

// Rate returns the token fill rate.
func (b *Bucket) Rate() float64 { return b.rate }

// Tokens returns the token level at time now.
func (b *Bucket) Tokens(now float64) float64 {
	b.refill(now)
	return b.tokens
}

func (b *Bucket) refill(now float64) {
	if now > b.last {
		b.tokens = math.Min(b.depth, b.tokens+(now-b.last)*b.rate)
		b.last = now
	}
}

// Conforms reports whether a packet of the given size generated at time now
// conforms, without consuming tokens.
func (b *Bucket) Conforms(now, size float64) bool {
	b.refill(now)
	return b.tokens >= size-Epsilon
}

// Take consumes size tokens at time now if the packet conforms, reporting
// whether it did. Nonconforming packets consume nothing (the paper drops or
// tags them).
func (b *Bucket) Take(now, size float64) bool {
	if !b.Conforms(now, size) {
		return false
	}
	b.tokens -= size
	if b.tokens < 0 {
		b.tokens = 0
	}
	return true
}

// TimeUntilConform returns how long after now the bucket will hold size
// tokens, assuming no consumption in between. Returns 0 if it already
// conforms, +Inf if size exceeds the depth.
func (b *Bucket) TimeUntilConform(now, size float64) float64 {
	if size > b.depth {
		return math.Inf(1)
	}
	b.refill(now)
	if b.tokens >= size {
		return 0
	}
	return (size - b.tokens) / b.rate
}

// Conformance checks a whole trace against the paper's recurrence:
//
//	n₀ = b,  nᵢ = min(b, nᵢ₋₁ + (tᵢ − tᵢ₋₁)·r − pᵢ)
//
// and reports whether nᵢ ≥ 0 for all i. Times must be nondecreasing.
func Conformance(rate, depth float64, times, sizes []float64) bool {
	if len(times) != len(sizes) {
		panic("tokenbucket: times and sizes length mismatch")
	}
	n := depth
	prev := 0.0
	for i := range times {
		if i > 0 {
			prev = times[i-1]
		} else {
			prev = times[0]
		}
		n = math.Min(depth, n+(times[i]-prev)*rate-sizes[i])
		if n < -1e-9 {
			return false
		}
	}
	return true
}

// MinDepth computes b(r): the minimal bucket depth for which the trace
// conforms to a filter of the given rate — the nonincreasing function b(r)
// the paper uses to trade clock rate against delay bound (the guaranteed
// delay bound is b(r)/r).
func MinDepth(rate float64, times, sizes []float64) float64 {
	if len(times) != len(sizes) {
		panic("tokenbucket: times and sizes length mismatch")
	}
	// Write nᵢ = b − Lᵢ. The paper's recurrence becomes
	// Lᵢ = max(0, Lᵢ₋₁ − Δt·r + pᵢ), which is independent of b, and the
	// conformance condition nᵢ ≥ 0 becomes Lᵢ ≤ b. The minimal depth is
	// therefore max over i of Lᵢ. Note the floor at zero applies after
	// adding pᵢ: the recurrence lets tokens accrued past the depth within
	// one inter-arrival gap pay for the packet ending that gap.
	need := 0.0
	level := 0.0 // deficit below full; starts at 0 (full bucket)
	for i := range sizes {
		if i > 0 {
			level -= (times[i] - times[i-1]) * rate
		}
		level += sizes[i]
		if level < 0 {
			level = 0
		}
		if level > need {
			need = level
		}
	}
	return need
}
