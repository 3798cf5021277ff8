package sched

import (
	"math"

	"ispn/internal/packet"
	"ispn/internal/queue"
)

// NonWorkConserving is implemented by schedulers that may hold queued
// packets until a future time (Stop-and-Go, Jitter-EDD, the Section 10
// "buffer early packets inside the network" service). A port whose
// scheduler returns nil from Dequeue while Len() > 0 consults NextEligible
// to know when to try again.
type NonWorkConserving interface {
	// NextEligible returns the earliest time at which Dequeue can yield
	// a packet, or +Inf if the queue is empty.
	NextEligible(now float64) float64
}

// Regulator implements jitter regulation in the spirit of Jitter-EDD
// (paper references [6, 22]) and the paper's Section 10 discussion: a packet
// that has been luckier than its class average upstream (negative jitter
// offset) is early by −offset seconds, and is held in the switch until its
// expected arrival time before being handed to the inner scheduler. Holding
// early packets removes accumulated jitter at the cost of raising average
// delay — the classic non-work-conserving trade (Section 11: such schemes
// "deliver higher average delays in return for lower jitter").
//
// On release the packet's offset is cleared and its arrival time rewritten
// to the release time: from the inner scheduler's point of view the packet
// arrived exactly on schedule.
type Regulator struct {
	inner Scheduler
	held  *queue.DeadlineQueue
}

// NewRegulator wraps inner with jitter regulation.
func NewRegulator(inner Scheduler) *Regulator {
	return &Regulator{inner: inner, held: queue.NewDeadlineQueue()}
}

// Enqueue implements Scheduler. Early packets are held; on-time or late
// packets pass straight through.
func (r *Regulator) Enqueue(p *packet.Packet, now float64) {
	eligible := p.ExpectedArrival()
	if eligible <= now {
		r.release(p, now)
		return
	}
	r.held.Push(p, eligible)
}

func (r *Regulator) release(p *packet.Packet, now float64) {
	p.JitterOffset = 0
	p.ArrivedAt = now
	r.inner.Enqueue(p, now)
}

// admit moves every held packet whose release time has passed into the
// inner scheduler.
func (r *Regulator) admit(now float64) {
	for r.held.Len() > 0 && r.held.PeekKey() <= now {
		r.release(r.held.Pop(), now)
	}
}

// Dequeue implements Scheduler; it returns nil while all queued packets are
// still being held.
func (r *Regulator) Dequeue(now float64) *packet.Packet {
	r.admit(now)
	return r.inner.Dequeue(now)
}

// Peek implements Scheduler. It only reflects released packets; held
// packets are invisible until eligible.
func (r *Regulator) Peek() *packet.Packet { return r.inner.Peek() }

// Len implements Scheduler (held + released).
func (r *Regulator) Len() int { return r.held.Len() + r.inner.Len() }

// NextEligible implements NonWorkConserving.
func (r *Regulator) NextEligible(now float64) float64 {
	if r.inner.Len() > 0 {
		return now
	}
	if r.held.Len() > 0 {
		return r.held.PeekKey()
	}
	return math.Inf(1)
}

var (
	_ Scheduler         = (*Regulator)(nil)
	_ NonWorkConserving = (*Regulator)(nil)
)
