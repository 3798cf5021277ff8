// Package core assembles the paper's architecture: the service interface
// (Section 8), the service commitments of Section 3, the Parekh–Gallager
// bound computation, edge conformance enforcement, and a network builder
// that puts a unified scheduler (Section 7) on every link.
package core

import (
	"fmt"
	"math"
)

// GuaranteedSpec is the guaranteed-service interface of Section 8: "the
// source only needs to specify the needed clock rate r". The network
// guarantees the rate; the source privately knows its b(r) and computes its
// own worst-case queueing delay. No conformance check is performed because
// the flow makes no traffic commitment.
type GuaranteedSpec struct {
	// ClockRate is r, in bits/second, reserved at every switch on the
	// path.
	ClockRate float64
	// BucketBits is the source's own b(r) in bits; it is not part of
	// what the network needs, but the library uses it to report the
	// Parekh-Gallager bound the source would compute.
	BucketBits float64
}

// Validate reports whether the spec is usable.
func (s GuaranteedSpec) Validate() error {
	if s.ClockRate <= 0 {
		return fmt.Errorf("core: guaranteed clock rate must be positive, got %v", s.ClockRate)
	}
	return nil
}

// PredictedSpec is the predicted-service interface of Section 8: the token
// bucket (r, b) the source commits to, and the (D, L) delay/loss service it
// requests. The network enforces (r, b) at the edge and uses (D, L) to
// assign the flow to an aggregate class at each switch.
type PredictedSpec struct {
	// TokenRate is r in bits/second; BucketBits is b in bits.
	TokenRate  float64
	BucketBits float64
	// Delay is the requested target delay D (seconds, per path).
	Delay float64
	// Loss is the tolerable loss rate L (fraction).
	Loss float64
}

// Validate reports whether the spec is usable.
func (s PredictedSpec) Validate() error {
	if s.TokenRate <= 0 || s.BucketBits <= 0 {
		return fmt.Errorf("core: predicted token bucket (r=%v, b=%v) must be positive", s.TokenRate, s.BucketBits)
	}
	if s.Delay <= 0 {
		return fmt.Errorf("core: predicted delay target must be positive, got %v", s.Delay)
	}
	if s.Loss < 0 || s.Loss >= 1 {
		return fmt.Errorf("core: loss target must be in [0,1), got %v", s.Loss)
	}
	return nil
}

// PGBound is the Parekh–Gallager end-to-end queueing delay bound as the paper
// computes it for a flow with token bucket depth bucketBits, clock rate
// rateBits (the same at every switch), crossing hops inter-switch links with
// maximum packet size maxPktBits:
//
//	D = b/r + (K−1)·Lmax/r
//
// The fluid term b/r is the delay of a full token-bucket burst drained at the
// clock rate; the (K−1)·Lmax/r term is the packetization penalty of PGPS at
// each hop after the first. Store-and-forward transmission time is part of
// the *fixed* delay, which the paper does not count as queueing (this choice
// reproduces the paper's printed bounds exactly, e.g. 588.24 ms for a
// Guaranteed-Average flow with b = 50 packets, r = 85 packets/s, 1 hop).
func PGBound(bucketBits, rateBits float64, hops int, maxPktBits float64) float64 {
	if hops < 1 || rateBits <= 0 {
		return math.Inf(1)
	}
	return bucketBits/rateBits + float64(hops-1)*maxPktBits/rateBits
}

// PGBoundPacketized is Parekh's complete packetized-GPS queueing bound,
//
//	D = b/r + (K−1)·Lmax/r + Σₖ Lmax/µₖ,
//
// which adds the per-hop non-preemption term Lmax/µ the paper's printed
// bounds omit: a packet arriving at a busy server must wait for the packet
// in service even if its own finish tag is smaller. Measured worst-case
// delays in a saturated network can sit between PGBound and this value:
// Table 3 prints both beside each guaranteed row's max
// (internal/experiments/testdata/golden/table3.txt).
func PGBoundPacketized(bucketBits, rateBits float64, hops int, maxPktBits, linkRate float64) float64 {
	if hops < 1 || rateBits <= 0 || linkRate <= 0 {
		return math.Inf(1)
	}
	return PGBound(bucketBits, rateBits, hops, maxPktBits) + float64(hops)*maxPktBits/linkRate
}
