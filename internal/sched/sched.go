// Package sched implements the paper's packet scheduling algorithms:
//
//   - FIFO — the sharing discipline for predicted service at one hop
//     (Section 5): bursts are multiplexed so post-facto jitter shrinks.
//   - FIFOPlus — FIFO+ (Section 6): FIFO sharing correlated across hops via
//     the jitter-offset header field, so jitter stops growing with path
//     length.
//   - Priority — strict priority between predicted-service classes and
//     datagram traffic (Section 7).
//   - WFQ — weighted fair queueing (Section 4): the isolation discipline
//     that delivers guaranteed service with Parekh–Gallager bounds.
//   - the unified pipeline — the paper's Section 7 scheduler: WFQ isolation
//     between guaranteed flows and a pseudo "flow 0" holding the
//     priority-ordered FIFO+ classes plus datagram traffic.
//   - VirtualClock, DRR, DelayEDD and StopAndGo — the Section 10–11
//     related-work baselines used in ablations and comparisons.
//
// WFQ and VirtualClock are one structure with two stamp rules, reached only
// through a reserving kind's Pipeline. The shared rateTable holds pseudo
// flow 0 inline, the guaranteed flows after it in registration order with
// their id map, a per-flow FIFO of tags beside a child scheduler, and the
// service rule: smallest head tag first, ties to the flow registered first;
// a flow removed with a backlog drains before its registration goes. Each
// discipline adds only how an arriving packet of size L on a flow of rate r
// is stamped:
//
//	WFQ           F = max(V, F_prev) + L/r    V: virtual time, advancing at µ / Σ_backlogged r
//	VirtualClock  VC = max(now, VC) + L/r     a per-flow clock in real time
//
// Profile names a port's discipline and NewPipeline builds it. Every kind is
// one Pipeline type: the reserving kinds (unified, wfq, virtualclock) fill in
// its rate scheduler and share its reservation bookkeeping, the classless
// kinds fill in one scheduler.
//
// All schedulers are single-goroutine simulation objects: the discrete-event
// engine serializes access, so they carry no locks.
package sched

import (
	"ispn/internal/packet"
	"ispn/internal/queue"
)

// Scheduler selects the order in which queued packets leave: it is the
// contract of a Pipeline's levels and flows (a port holds its Pipeline, which
// is one too). The paper (Sections 4–7) asks one thing of a switch's
// scheduler — which packet leaves next — and Dequeue answers it. There is
// no Peek: no port, pipeline or experiment looked before it took, and a dry
// run that must agree with Dequeue is a second copy of every discipline's
// service rule (DRR's deficit walk, the rate table's tag scan) to keep in
// step with the first.
// Enqueue and Dequeue take the current simulated time because several
// disciplines (WFQ virtual time, FIFO+ averages) are time-dependent.
type Scheduler interface {
	// Enqueue accepts a packet. Buffer limits are enforced by the port,
	// not the scheduler, so Enqueue cannot fail.
	Enqueue(p *packet.Packet, now float64)
	// Dequeue removes and returns the next packet to transmit, or nil if
	// the scheduler is empty.
	Dequeue(now float64) *packet.Packet
	// Len returns the number of queued packets.
	Len() int
}

// FIFO is first-in-first-out service — the paper's sharing discipline for a
// single class at a single hop, and the service discipline for datagram
// traffic.
type FIFO struct {
	q queue.Ring
}

// NewFIFO returns an empty FIFO scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Enqueue implements Scheduler.
func (f *FIFO) Enqueue(p *packet.Packet, _ float64) { f.q.Push(p) }

// Dequeue implements Scheduler.
func (f *FIFO) Dequeue(_ float64) *packet.Packet { return f.q.Pop() }

// Len implements Scheduler.
func (f *FIFO) Len() int { return f.q.Len() }

var _ Scheduler = (*FIFO)(nil)
