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
// against the policy actually running at each hop.

func (n *Network) controller(pt *topology.Port) *admission.Controller {
	idx := pt.Index()
	if c := n.admit[idx]; c != nil {
		return c
	}
	prof := n.profs[idx]
	c := admission.New(admission.Config{
		LinkRate:     pt.Bandwidth(),
		Quota:        1 - prof.Quota(),
		ClassTargets: prof.ClassTargets,
		ClassDelay: func(class int, now float64) float64 {
			// Resolve the pipeline through the slice on every call, so a
			// live profile swap rebinds the measurement automatically.
			return n.pipes[idx].ClassDelayEstimate(class, now)
		},
	})
	// Chain rather than replace: experiments attach their own accounting
	// to the same hook.
	prev := pt.OnTransmit
	if prev == nil {
		pt.OnTransmit = c.ObserveTransmit
	} else {
		pt.OnTransmit = func(p *packet.Packet, now float64) {
			prev(p, now)
			c.ObserveTransmit(p, now)
		}
	}
	n.admit[idx] = c
	return c
}

func (n *Network) admitGuaranteed(pt *topology.Port, rate float64, token uint64) error {
	return n.controller(pt).AdmitGuaranteedOwned(n.eng.Now(), rate, token)
}

func (n *Network) admitPredicted(pt *topology.Port, spec PredictedSpec, class int, token uint64) error {
	// A hop with fewer classes serves the flow in its lowest predicted
	// class; admit it there.
	if k := n.profs[pt.Index()].Classes(); class >= k {
		class = k - 1
	}
	return n.controller(pt).AdmitPredictedOwned(n.eng.Now(), spec.TokenRate, spec.BucketBits, class, token)
}
