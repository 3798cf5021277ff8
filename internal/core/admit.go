package core

import (
	"ispn/internal/admission"
	"ispn/internal/packet"
	"ispn/internal/topology"
)

// Admission glue: one measurement-based controller per port, created lazily
// when Config.AdmissionControl is set, fed from the port's transmit hook and
// the port pipeline's per-class delay measurements. Controllers live in a
// dense slice indexed by port id and are parameterized by the port's own
// profile (quota, class targets), so heterogeneous deployments admit
// against the policy actually running at each hop. Every service operation
// is admitted by one transaction, admitAlong; its ledger token is kept by
// Flow.claim and handed back by releaseLedger or reledger. Tokens come from
// the one rising ledgerSeq and every entry warms up for the same time, so
// each controller's ledger stays sorted by owner and by expiry, which its
// searches rely on (admission.Controller.Declare panics on a token issued
// out of order).

func (n *Network) controller(pt *topology.Port) *admission.Controller {
	idx := pt.Index()
	if c := n.admit[idx]; c != nil {
		return c
	}
	prof := pt.Pipeline().Profile()
	c := admission.New(admission.Config{
		LinkRate:     pt.Bandwidth(),
		Quota:        1 - prof.Quota(),
		ClassTargets: prof.ClassTargets,
		ClassDelay: func(class int, now float64) float64 {
			// Resolve the pipeline through the port on every call, so a
			// live profile swap rebinds the measurement automatically.
			return pt.Pipeline().ClassDelayEstimate(class, now)
		},
	})
	pt.OnTransmit(c.ObserveTransmit)
	n.admit[idx] = c
	return c
}

func (n *Network) admitGuaranteed(pt *topology.Port, rate float64, token uint64) error {
	return n.controller(pt).AdmitGuaranteedOwned(n.eng.Now(), rate, token)
}

func (n *Network) admitPredicted(pt *topology.Port, d demand, token uint64) error {
	// A hop with fewer classes serves the flow in its lowest predicted
	// class; admit it there.
	class := d.priority
	if k := pt.Pipeline().Classes(); class >= k {
		class = k - 1
	}
	return n.controller(pt).AdmitPredictedOwned(n.eng.Now(), d.rate, d.bucket, class, token)
}

// demand is what one admission operation asks of every hop it crosses: a
// guaranteed clock rate, a predicted token bucket (r, b) in a class, or — a
// datagram flow — nothing.
type demand struct {
	class    packet.Class
	rate     float64 // clock rate, or predicted token rate r
	bucket   float64 // predicted: bucket depth b
	priority int     // predicted: the flow's class
}

// demand is what a predicted spec asks of each hop in the given class.
func (s PredictedSpec) demand(class int) demand {
	return demand{class: packet.Predicted, rate: s.TokenRate, bucket: s.BucketBits, priority: class}
}

// admitAlong is the §9 admission transaction. It walks ports in path order:
// a guaranteed demand must fit the hop's reservation quota (checkReserve) and
// then pass criterion 1; a predicted demand must pass criteria 1–2 in its
// class. Each hop that admits records the declared rate in its warm-up ledger
// under one fresh token, and the first refusal hands the earlier hops'
// entries back — each the newest in its ledger, trimmed off the end — so a
// refused operation charges nothing anywhere. On success it returns the
// token, or 0 when nothing was recorded. With admission control off only a
// guaranteed reservation is checked: a predicted (or datagram) demand
// touches no port.
func (n *Network) admitAlong(ports []*topology.Port, d demand) (uint64, error) {
	var token uint64
	switch {
	case n.cfg.AdmissionControl && d.class != packet.Datagram:
		n.ledgerSeq++
		token = n.ledgerSeq
	case d.class != packet.Guaranteed:
		return 0, nil
	}
	for i, pt := range ports {
		var err error
		if d.class == packet.Guaranteed {
			err = n.checkReserve(pt, d.rate)
		}
		if err == nil && token != 0 {
			if d.class == packet.Guaranteed {
				err = n.admitGuaranteed(pt, d.rate, token)
			} else {
				err = n.admitPredicted(pt, d, token)
			}
		}
		if err != nil {
			n.releaseLedger(ports[:i], token)
			return 0, err
		}
	}
	return token, nil
}

// claim records an admission operation's ledger token on the flow, so
// Release hands back exactly this flow's still-warming entries and never
// another flow's equal-rate one. Token 0 recorded nothing and is not kept.
func (f *Flow) claim(token uint64) {
	if token == 0 {
		return
	}
	if f.ledgerTokens == nil {
		f.ledgerTokens = f.firstToken[:0]
	}
	f.ledgerTokens = append(f.ledgerTokens, token)
}

// releaseLedger drops every still-warming ledger entry of the given
// operations from each port's controller; entries that outlived their warm-up
// are already gone and release as a no-op.
func (n *Network) releaseLedger(ports []*topology.Port, tokens ...uint64) {
	now := n.eng.Now()
	for _, pt := range ports {
		if c := n.admit[pt.Index()]; c != nil {
			for _, tok := range tokens {
				c.ReleaseOwner(now, tok)
			}
		}
	}
}

// reledger replaces a flow's warm-up ledger claims with a single fresh entry
// at newRate on every hop — the renegotiation-decrease path, which runs no
// test. Without the fresh entry a just-admitted, never-measured flow would
// vanish from ν̂ entirely; with it the flow is covered at exactly its new
// declared rate (and a later increase adds only its delta, so shrink-then-
// grow sums to the new total instead of double-charging).
func (n *Network) reledger(ports []*topology.Port, f *Flow, newRate float64) {
	if !n.cfg.AdmissionControl {
		return
	}
	n.releaseLedger(ports, f.ledgerTokens...)
	n.ledgerSeq++
	now := n.eng.Now()
	for _, pt := range ports {
		if c := n.admit[pt.Index()]; c != nil {
			c.Declare(now, newRate, n.ledgerSeq)
		}
	}
	f.ledgerTokens = f.ledgerTokens[:0]
	f.claim(n.ledgerSeq)
}
