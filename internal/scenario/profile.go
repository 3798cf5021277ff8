package scenario

import "ispn/internal/sched"

// Per-link scheduling profiles in the .ispn grammar. A link chain (static or
// inside an at block) may carry profile arguments next to rate/delay:
//
//	core1 -> core2 :: Link(rate 1Mbps, sched wfq)
//	s3 -> s4 :: Link(sharing fifo, targets [32ms, 320ms], quota 5%)
//
// Net's targets and quota, applied over sched.Profile{}, are the network
// default profile. Static links build their pipeline from it with the given
// fields overridden; inside an at block the same arguments become a live
// profile swap, merged over the link's *current* profile at event time
// (renew-style: give only what changes).

// profPatch is a partial scheduling profile: the profile arguments that were
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

// apply overlays the patch on base and returns the resulting normalized
// profile.
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

// linkProfile consumes the scheduling-profile arguments of a Net or Link
// argument set (those its row accepts), validating each with the argument's
// position: the discipline name against the sched pipeline registry, the
// sharing mode, targets as positive durations, and the quota as a fraction
// below 1 (an explicit 0 means "no datagram reservation").
func (c *compiler) linkProfile(a *argSet) profPatch {
	var p profPatch
	p.kind = a.enum("sched", "", sched.PipelineKinds()...)
	if _, ok := a.given("sharing"); ok {
		p.sharingSet = true
		switch a.enum("sharing", "fifoplus", "fifoplus", "fifo", "rr") {
		case "fifo":
			p.sharing = sched.SharingFIFO
		case "rr":
			p.sharing = sched.SharingRoundRobin
		}
	}
	targetsPos, _ := a.given("targets")
	p.targets = a.durList("targets", nil)
	for _, d := range p.targets {
		if d <= 0 {
			c.failf(targetsPos, "targets must be positive delays, got %v", d)
		}
	}
	if pos, ok := a.given("quota"); ok {
		p.quota = a.fraction("quota", 0)
		p.quotaSet = true
		if p.quota < 0 || p.quota >= 1 {
			c.failf(pos, "quota must be a fraction in [0, 1), got %v", p.quota)
		}
		if p.quota == 0 {
			// An explicit zero is expressible: no datagram reservation.
			p.quota = sched.NoDatagramQuota
		}
	}
	return p
}
