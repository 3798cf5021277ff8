// Package admission implements the paper's Section 9 measurement-based
// admission control for one link.
//
// The controller keeps two kinds of measured state: ν̂, a conservative
// (peak-of-recent-windows) estimate of the real-time utilization of the
// link, and d̂ⱼ, a conservative estimate of the recent maximal queueing
// delay of each predicted class j at this switch. A new predicted flow
// declaring a token bucket (r, b) is admitted into class i iff
//
//	(1) r + ν̂ < q·µ                          (datagram quota preserved)
//	(2) b < (Dⱼ − d̂ⱼ)(µ − ν̂ − r)  for all j ≥ i (equal or lower priority)
//
// where q = 0.9 and Dⱼ are the per-switch class delay targets. A guaranteed
// request of clock rate r is checked against (1) only — guaranteed
// commitments are "higher in priority than all levels i" and make no
// bucket-depth commitment.
//
// Following Section 9, only the *new* source is counted worst-case: existing
// flows enter the computation through measurement. Because measurement lags
// admission, freshly admitted flows contribute their declared rate to ν̂
// until the measurement has had time to see them (the ledger below).
package admission

import (
	"fmt"

	"ispn/internal/packet"
	"ispn/internal/stats"
)

// Controller is the per-link admission controller.
type Controller struct {
	mu      float64   // link rate, bits/s
	quota   float64   // real-time cap as a fraction of mu (paper: 0.9)
	targets []float64 // per-class delay targets D_j (seconds at this switch)

	rt         *stats.RateMeter // measured real-time bits
	classDelay func(class int, now float64) float64

	ledger []ledgerEntry
}

// The measurement constants: Section 9 leaves them to the implementation,
// and one controller per link shares them.
const (
	measureWindow = 1.0 // ν̂ averaging window, seconds
	measureKeep   = 10  // windows the ν̂ peak is taken over
	warmup        = 3.0 // seconds a declared rate stays in the ledger before measurement takes over
)

type ledgerEntry struct {
	rate    float64
	expires float64
	// owner distinguishes whose declared rate this is, so releasing one
	// flow's capacity can never cannibalize another flow's still-warming
	// entry of the same rate (homogeneous churn makes equal rates the
	// common case, not the corner case). 0 means anonymous.
	owner uint64
}

// Config parameterizes a Controller.
type Config struct {
	// LinkRate is µ in bits/second.
	LinkRate float64
	// Quota is the maximum real-time fraction (0 defaults to 0.9).
	Quota float64
	// ClassTargets are the per-switch targets D_j, highest priority
	// first.
	ClassTargets []float64
	// ClassDelay returns the measured conservative class delay d̂_j; nil
	// means "no measurement yet" (0 is assumed).
	ClassDelay func(class int, now float64) float64
}

// New builds a Controller.
func New(cfg Config) *Controller {
	if cfg.LinkRate <= 0 {
		panic("admission: link rate must be positive")
	}
	if cfg.Quota == 0 {
		cfg.Quota = 0.9
	}
	if cfg.Quota <= 0 || cfg.Quota > 1 {
		panic("admission: quota must be in (0,1]")
	}
	if len(cfg.ClassTargets) == 0 {
		panic("admission: need at least one class target")
	}
	return &Controller{
		mu:         cfg.LinkRate,
		quota:      cfg.Quota,
		targets:    append([]float64(nil), cfg.ClassTargets...),
		rt:         stats.NewRateMeter(measureWindow, measureKeep),
		classDelay: cfg.ClassDelay,
	}
}

// ObserveTransmit feeds the utilization measurement; wire it to the port's
// OnTransmit observer. Only real-time (guaranteed + predicted) traffic counts
// toward ν̂.
func (c *Controller) ObserveTransmit(p *packet.Packet, now float64) {
	if p.Class == packet.Datagram {
		return
	}
	c.rt.Add(now, float64(p.Size))
}

// Utilization returns ν̂ at time now: the conservative measured real-time
// rate plus the declared rates still in the warmup ledger, in bits/second.
func (c *Controller) Utilization(now float64) float64 {
	nu := c.rt.PeakRate(now)
	kept := c.ledger[:0]
	for _, e := range c.ledger {
		if e.expires > now {
			kept = append(kept, e)
			nu += e.rate
		}
	}
	c.ledger = kept
	return nu
}

// SetLinkRate updates µ after a mid-run link reconfiguration, so admission
// decisions track the link's real capacity rather than the rate captured at
// controller creation.
func (c *Controller) SetLinkRate(mu float64) {
	if mu <= 0 {
		panic("admission: link rate must be positive")
	}
	c.mu = mu
}

// SetQuota updates the real-time cap after a mid-run scheduling-profile
// swap. The utilization measurement is kept: the traffic did not change,
// the policy did.
func (c *Controller) SetQuota(quota float64) {
	if quota <= 0 || quota > 1 {
		panic("admission: quota must be in (0,1]")
	}
	c.quota = quota
}

// SetClassTargets replaces the per-class delay targets after a mid-run
// scheduling-profile swap.
func (c *Controller) SetClassTargets(targets []float64) {
	if len(targets) == 0 {
		panic("admission: need at least one class target")
	}
	c.targets = append(c.targets[:0], targets...)
}

// Declare inserts a ledger entry for an already-authorized declared rate
// without running the admission tests — the renegotiation-decrease path uses
// it to re-cover a flow at its new, smaller rate.
func (c *Controller) Declare(now, rate float64, owner uint64) {
	c.ledger = append(c.ledger, ledgerEntry{rate: rate, expires: now + warmup, owner: owner})
}

// ReleaseOwner drops every still-warming ledger entry of the given owner —
// a departure (or a failed multi-hop operation's rollback) stops counting
// its declared rate against ν̂ immediately. A flow that outlived its warmup
// has no entries left and releases as a no-op: its share of ν̂ is measured,
// and decays out of the peak windows on its own once the traffic stops.
// Anonymous entries (owner 0) are not releasable.
func (c *Controller) ReleaseOwner(now float64, owner uint64) {
	if owner == 0 {
		return
	}
	kept := c.ledger[:0]
	for _, e := range c.ledger {
		if e.owner != owner {
			kept = append(kept, e)
		}
	}
	c.ledger = kept
}

// ErrRejected is returned (wrapped) when a request fails the criteria. It
// carries the numbers of the failed test rather than a rendered message, so
// a refusal costs one small allocation and Error builds the text only when
// somebody reads it (churn worlds refuse thousands of calls unread).
type ErrRejected struct {
	Criterion int // 1 or 2
	Class     int // class j that failed criterion 2 (criterion 1: -1)

	R, Nu     float64 // the declared rate r and the measured ν̂
	Quota, Mu float64 // the real-time cap q and the link rate µ
	// Criterion 2 only: the declared bucket b, and class j's target Dⱼ
	// and measured delay d̂ⱼ.
	B, Target, Delay float64
}

// Error implements error.
func (e *ErrRejected) Error() string {
	var detail string
	if e.Criterion == 1 {
		detail = fmt.Sprintf("r=%.0f + ν̂=%.0f >= %.2f·µ=%.0f", e.R, e.Nu, e.Quota, e.Quota*e.Mu)
	} else {
		spare := e.Mu - e.Nu - e.R
		detail = fmt.Sprintf("b=%.0f >= (D=%.4f − d̂=%.4f)·(µ−ν̂−r=%.0f) = %.0f",
			e.B, e.Target, e.Delay, spare, (e.Target-e.Delay)*spare)
	}
	return fmt.Sprintf("admission rejected (criterion %d, class %d): %s", e.Criterion, e.Class, detail)
}

// criterion1 measures ν̂ and tests r against the datagram quota — the part
// of the decision guaranteed and predicted requests share.
func (c *Controller) criterion1(now, r float64) (nu float64, rej *ErrRejected) {
	nu = c.Utilization(now)
	if r+nu >= c.quota*c.mu {
		rej = &ErrRejected{Criterion: 1, Class: -1, R: r, Nu: nu, Quota: c.quota, Mu: c.mu}
	}
	return nu, rej
}

// AdmitGuaranteedOwned tests a guaranteed request of clock rate r at time
// now and on success records the declared rate in the ledger, tagged by
// owner so ReleaseOwner can later drop exactly this flow's claim (owner 0:
// anonymous, never released).
func (c *Controller) AdmitGuaranteedOwned(now, r float64, owner uint64) error {
	if _, rej := c.criterion1(now, r); rej != nil {
		return rej
	}
	c.Declare(now, r, owner)
	return nil
}

// AdmitPredictedOwned tests a predicted request (r, b) into class at time
// now and on success records the declared rate, tagged by owner.
func (c *Controller) AdmitPredictedOwned(now, r, b float64, class int, owner uint64) error {
	if class < 0 || class >= len(c.targets) {
		return fmt.Errorf("admission: class %d out of range", class)
	}
	nu, rej := c.criterion1(now, r)
	if rej != nil {
		return rej
	}
	for j := class; j < len(c.targets); j++ {
		dj := 0.0
		if c.classDelay != nil {
			dj = c.classDelay(j, now)
		}
		if b >= (c.targets[j]-dj)*(c.mu-nu-r) {
			return &ErrRejected{Criterion: 2, Class: j, R: r, Nu: nu, Quota: c.quota, Mu: c.mu,
				B: b, Target: c.targets[j], Delay: dj}
		}
	}
	c.Declare(now, r, owner)
	return nil
}
