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

// Bucket is a token bucket filter. Create one with New, or with Make where it
// sits inside a larger struct; the bucket starts full, matching the paper's
// recurrence n₀ = b.
type Bucket struct {
	rate   float64 // tokens per second
	depth  float64 // maximum tokens
	tokens float64
	last   float64 // time of last update
}

// New returns a full bucket with the given rate (tokens/second) and depth.
func New(rate, depth float64) *Bucket {
	b := Make(rate, depth)
	return &b
}

// Make is New by value.
func Make(rate, depth float64) Bucket {
	if rate <= 0 || depth <= 0 {
		panic("tokenbucket: rate and depth must be positive")
	}
	return Bucket{rate: rate, depth: depth, tokens: depth}
}

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
