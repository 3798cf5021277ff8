package sched

import (
	"math"

	"ispn/internal/packet"
	"ispn/internal/queue"
)

// StopAndGo implements Golestani's Stop-and-Go queueing (the paper's
// references [8, 9]), the canonical framing discipline: time is divided into
// frames of length T, and a packet arriving during frame k becomes eligible
// for transmission only at the start of frame k+1. Within the eligible set,
// service is FIFO. The discipline is non-work-conserving — the link idles
// if only current-frame packets are queued — and in exchange bounds both
// delay and jitter per hop to within a frame time: exactly the
// "higher average delays in return for lower jitter" trade Section 11
// describes for the non-work-conserving related work.
type StopAndGo struct {
	frame    float64
	eligible queue.Ring           // packets from completed frames, FIFO
	pending  *queue.DeadlineQueue // packets keyed by their eligibility time
}

// NewStopAndGo returns a Stop-and-Go scheduler with the given frame length
// in seconds.
func NewStopAndGo(frame float64) *StopAndGo {
	if frame <= 0 {
		panic("sched: StopAndGo frame must be positive")
	}
	return &StopAndGo{frame: frame, pending: queue.NewDeadlineQueue()}
}

// frameStart returns the start of the frame containing t.
func (s *StopAndGo) frameStart(t float64) float64 {
	return math.Floor(t/s.frame) * s.frame
}

// Enqueue implements Scheduler: the packet becomes eligible at the start of
// the next frame.
func (s *StopAndGo) Enqueue(p *packet.Packet, now float64) {
	s.pending.Push(p, s.frameStart(now)+s.frame)
}

// promote moves packets whose frame has completed into the eligible FIFO.
func (s *StopAndGo) promote(now float64) {
	for s.pending.Len() > 0 && s.pending.PeekKey() <= now+1e-12 {
		s.eligible.Push(s.pending.Pop())
	}
}

// Dequeue implements Scheduler; it returns nil while every queued packet is
// still inside its arrival frame.
func (s *StopAndGo) Dequeue(now float64) *packet.Packet {
	s.promote(now)
	return s.eligible.Pop()
}

// Len implements Scheduler.
func (s *StopAndGo) Len() int { return s.eligible.Len() + s.pending.Len() }

// NextEligible returns the earliest time at which Dequeue can yield a
// packet, or +Inf if the queue is empty.
func (s *StopAndGo) NextEligible(now float64) float64 {
	if s.eligible.Len() > 0 {
		return now
	}
	if s.pending.Len() > 0 {
		return s.pending.PeekKey()
	}
	return math.Inf(1)
}

var _ Scheduler = (*StopAndGo)(nil)
