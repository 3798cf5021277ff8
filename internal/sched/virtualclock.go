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

// NewVirtualClock returns an empty VirtualClock scheduler.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{rateTable: newRateTable()}
}

// AddFlow registers a flow with the given clock rate (bits/second), served
// FIFO within the flow. It panics if the rate is not positive or the id is
// registered and live; an id still draining after RemoveFlow is revived at
// the new rate.
func (v *VirtualClock) AddFlow(id uint32, rate float64) {
	if v.add(id, rate, NewFIFO()) {
		v.SetRate(id, rate)
	}
}

// SetRate changes a flow's clock rate; packets already stamped keep their
// tags (the per-flow clock just advances at the new rate from now on).
func (v *VirtualClock) SetRate(id uint32, rate float64) { v.setRate(id, rate) }

// Enqueue implements Scheduler.
func (v *VirtualClock) Enqueue(p *packet.Packet, now float64) {
	v.enqueueOn(v.flowOf(p), p, now)
}

// enqueueOn advances f's clock by p, stamps p with it and queues it on f, a
// flow of v's table.
func (v *VirtualClock) enqueueOn(f *rateFlow, p *packet.Packet, now float64) {
	v.push(f, math.Max(now, f.last)+float64(p.Size)/f.rate, p, now)
}

// Dequeue implements Scheduler.
func (v *VirtualClock) Dequeue(now float64) *packet.Packet {
	if v.n == 0 {
		return nil
	}
	_, p := v.pop(now)
	return p
}

var _ Scheduler = (*VirtualClock)(nil)
