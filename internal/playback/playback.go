// Package playback models the paper's play-back applications (Section 2).
//
// A play-back receiver buffers incoming packets and replays the signal at a
// play-back point: data arriving after its play-back point is useless (a
// loss); data arriving before it waits in the buffer. A rigid client sets
// the play-back point once, from the network's a priori delay bound. An
// adaptive client measures the delays its packets actually receive and moves
// the play-back point to (roughly) the observed delay percentile that meets
// its loss tolerance — which is why predicted service tries to minimize the
// post facto bound rather than the a priori one.
package playback

import (
	"ispn/internal/stats"
)

// Client consumes (delay, deadline-met) observations for packets of one flow.
// Delays here are end-to-end queueing delays; the fixed delay component is
// common to every packet and does not affect which packets miss a play-back
// point expressed the same way.
type Client interface {
	// Deliver records a packet that arrived with the given queueing
	// delay and reports whether it made its play-back point.
	Deliver(now, delay float64) bool
	// Point returns the current play-back point (seconds of queueing
	// delay the client waits out).
	Point() float64
	// Losses returns how many packets missed the play-back point, out of
	// Total.
	Losses() int64
	// Total returns how many packets were delivered to the client.
	Total() int64
}

// Rigid is a client that fixes its play-back point at the network's a priori
// bound and never moves it.
type Rigid struct {
	point  float64
	losses int64
	total  int64
}

// NewRigid returns a rigid client with the given play-back point (typically
// the advertised a priori delay bound).
func NewRigid(point float64) *Rigid { return &Rigid{point: point} }

// Deliver implements Client.
func (r *Rigid) Deliver(_, delay float64) bool {
	r.total++
	if delay > r.point {
		r.losses++
		return false
	}
	return true
}

// Point implements Client.
func (r *Rigid) Point() float64 { return r.point }

// Losses implements Client.
func (r *Rigid) Losses() int64 { return r.losses }

// Total implements Client.
func (r *Rigid) Total() int64 { return r.total }

// Adaptive moves its play-back point to track a high percentile of the
// measured delay distribution plus a safety margin. It gambles that the
// recent past predicts the near future — the same gamble predicted service
// makes (Section 3).
type Adaptive struct {
	quantile *stats.P2Quantile
	margin   float64 // multiplicative headroom over the percentile
	minPoint float64
	point    float64
	losses   int64
	total    int64
	pointSum float64 // sum of the play-back point after each delivery
}

// AdaptiveConfig parameterizes an adaptive client.
type AdaptiveConfig struct {
	// TargetLoss is the loss fraction the client tolerates; the client
	// tracks the (1 − TargetLoss) delay quantile (default 0.001).
	TargetLoss float64
	// Margin is multiplicative headroom over the tracked quantile
	// (default 1.1).
	Margin float64
	// InitialPoint is the play-back point before any measurement — a
	// fresh adaptive client starts from the a priori bound, like a rigid
	// one, then adapts downward.
	InitialPoint float64
	// MinPoint floors the play-back point (default 0).
	MinPoint float64
}

// NewAdaptive returns an adaptive client.
func NewAdaptive(cfg AdaptiveConfig) *Adaptive {
	if cfg.TargetLoss == 0 {
		cfg.TargetLoss = 0.001
	}
	if cfg.TargetLoss <= 0 || cfg.TargetLoss >= 1 {
		panic("playback: TargetLoss must be in (0,1)")
	}
	if cfg.Margin == 0 {
		cfg.Margin = 1.1
	}
	return &Adaptive{
		quantile: stats.NewP2Quantile(1 - cfg.TargetLoss),
		margin:   cfg.Margin,
		minPoint: cfg.MinPoint,
		point:    cfg.InitialPoint,
	}
}

// Deliver implements Client.
func (a *Adaptive) Deliver(_, delay float64) bool {
	a.total++
	ok := delay <= a.point
	if !ok {
		a.losses++
	}
	a.quantile.Add(delay)
	// Adapt once enough evidence exists; before that, hold the initial
	// (a priori) point.
	if a.quantile.Count() >= 20 {
		p := a.quantile.Value() * a.margin
		if p < a.minPoint {
			p = a.minPoint
		}
		a.point = p
	}
	a.pointSum += a.point
	return ok
}

// Point implements Client.
func (a *Adaptive) Point() float64 { return a.point }

// Losses implements Client.
func (a *Adaptive) Losses() int64 { return a.losses }

// Total implements Client.
func (a *Adaptive) Total() int64 { return a.total }

// MeanPoint returns the time-average play-back point the client used — the
// application-performance metric the paper argues adaptive clients improve.
func (a *Adaptive) MeanPoint() float64 { return a.pointSum / float64(max(a.total, 1)) }
