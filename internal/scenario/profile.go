package scenario

import (
	"ispn/internal/sched"
)

// Per-link scheduling profiles in the .ispn grammar. A link chain (static or
// inside an at block) may carry profile arguments next to rate/delay:
//
//	core1 -> core2 :: Link(rate 1Mbps, sched wfq)
//	s3 -> s4 :: Link(sharing fifo, targets [32ms, 320ms], quota 5%)
//
// Static links build their pipeline from the network default profile with
// the given fields overridden; inside an at block the same arguments become
// a live profile swap, merged over the link's *current* profile at event
// time (renew-style: give only what changes).

// linkArgNames is the accepted Link argument set, in documentation order.
var linkArgNames = []string{"rate", "delay", "sched", "sharing", "classes", "targets", "quota"}

// profPatch is a partial scheduling profile: the Link arguments that were
// actually written, ready to be applied over a base profile.
type profPatch struct {
	kind       string
	sharing    sched.Sharing
	sharingSet bool
	targets    []float64
	quota      float64
	quotaSet   bool
}

// any reports whether the patch changes anything.
func (p profPatch) any() bool {
	return p.kind != "" || p.sharingSet || len(p.targets) > 0 || p.quotaSet
}

// apply overlays the patch on base and returns the resulting profile.
func (p profPatch) apply(base sched.Profile) sched.Profile {
	out := base
	if p.kind != "" {
		out.Kind = p.kind
	}
	if p.sharingSet {
		out.Sharing = p.sharing
	}
	if len(p.targets) > 0 {
		out.ClassTargets = append([]float64(nil), p.targets...)
	}
	if p.quotaSet {
		out.DatagramQuota = p.quota
	}
	return out.Normalize()
}

// sharingMode consumes the "sharing" argument (Net and Link share the
// spelling), reporting whether it was given at all.
func sharingMode(a *argSet) (sched.Sharing, bool) {
	if _, ok := a.given("sharing", -1); !ok {
		return sched.SharingFIFOPlus, false
	}
	switch a.enum("sharing", "fifoplus", "fifoplus", "fifo", "rr") {
	case "fifo":
		return sched.SharingFIFO, true
	case "rr":
		return sched.SharingRoundRobin, true
	}
	return sched.SharingFIFOPlus, true
}

// linkProfile consumes the scheduling-profile arguments of a Link argument
// set, validating each with the argument's position: the discipline name
// against the sched pipeline registry, targets as positive durations, the
// quota as a fraction below 1 (an explicit 0 means "no datagram
// reservation"), and a classes count against the targets list length.
func (c *compiler) linkProfile(a *argSet) profPatch {
	var p profPatch
	p.kind = a.enum("sched", "", sched.PipelineKinds()...)
	p.sharing, p.sharingSet = sharingMode(a)
	targetsPos, targetsGiven := a.given("targets", -1)
	p.targets = a.durList("targets", nil)
	for _, d := range p.targets {
		if d <= 0 {
			c.failf(targetsPos, "targets must be positive delays, got %v", d)
			return p
		}
	}
	if pos, ok := a.given("quota", -1); ok {
		p.quota = a.fraction("quota", -1, 0)
		p.quotaSet = true
		if p.quota < 0 || p.quota >= 1 {
			c.failf(pos, "quota must be a fraction in [0, 1), got %v", p.quota)
			return p
		}
		if p.quota == 0 {
			// An explicit zero is expressible: no datagram reservation.
			p.quota = sched.NoDatagramQuota
		}
	}
	if pos, ok := a.given("classes", -1); ok {
		classes := a.count("classes", -1, 0)
		if !targetsGiven {
			c.failf(pos, "classes needs a matching targets list (targets [32ms, 320ms])")
			return p
		}
		if classes != len(p.targets) {
			c.failf(targetsPos, "targets lists %d delays but classes is %d", len(p.targets), classes)
			return p
		}
	}
	return p
}
