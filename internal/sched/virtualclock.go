package sched

import (
	"math"

	"ispn/internal/packet"
)

// VirtualClock implements Zhang's VirtualClock discipline (reference [26] of
// the paper), a baseline with an "extremely similar underlying packet
// scheduling algorithm" to WFQ — here, the same rateTable — but with
// per-flow clocks that advance in real time rather than virtual time: each
// flow keeps a clock VC = max(now, VC) + size/r, packets are stamped with
// VC, and the smallest stamp is served first.
type VirtualClock struct {
	rateTable
}

// setRate changes f's clock rate; packets already stamped keep their tags
// (the per-flow clock just advances at the new rate from now on).
func (v *VirtualClock) setRate(f *rateFlow, rate float64) { f.rate = rate }

// enqueueOn advances f's clock by p, stamps p with it and queues it on f, a
// flow of v's table.
func (v *VirtualClock) enqueueOn(f *rateFlow, p *packet.Packet, now float64) {
	v.push(f, math.Max(now, f.last)+float64(p.Size)/f.rate, p, now)
}

// Dequeue serves the flow with the smallest head tag, or returns nil if
// none is backlogged.
func (v *VirtualClock) Dequeue(now float64) *packet.Packet {
	if v.n == 0 {
		return nil
	}
	_, p := v.pop(now)
	return p
}
