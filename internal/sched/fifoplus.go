package sched

import (
	"ispn/internal/packet"
	"ispn/internal/queue"
	"ispn/internal/stats"
)

// fifoPlusGain is the gain of the per-hop class-average delay, an
// exponentially weighted moving average: avg += gain·(delay − avg). The
// offset field encodes how *lucky* a packet was relative to the class
// baseline, so the baseline must be stable on the timescale of many bursts.
// Sweeping the gain of Table 2's FIFO+ cell (seeds 1-8, 180 s) moves the mean
// 4-hop 99.9th percentile 51.3 → 46.4 → 44.2 → 43.3 → 42.8 ms for gains
// 1e-2, 3e-3, 1e-3, 3e-4, 1e-4: it improves as the gain shrinks and saturates
// near 3e-4, a time constant of a few seconds at the paper's packet rates.
const fifoPlusGain = 3e-4

// FIFOPlus implements the paper's FIFO+ discipline (Section 6) for one
// priority class at one switch.
//
// Each switch measures the average queueing delay of the class. When a packet
// departs, the difference between its own delay here and the class average is
// added to the jitter-offset field in its header. A downstream switch then
// computes the packet's expected arrival time — when it would have arrived
// had it received exactly average service upstream — and inserts it into the
// queue in expected-arrival order. Packets that have been unlucky upstream
// (positive offset) are scheduled as if they had arrived earlier, which
// equalizes jitter across the aggregate over the whole path instead of per
// hop, so the post-facto jitter bound stops growing with hop count.
//
// Its queue and meter are held by value, so the K classes of a port are one
// []FIFOPlus.
type FIFOPlus struct {
	q queue.DeadlineQueue
	// avg is the class-average delay at this hop; seen is set once the
	// first packet has defined it.
	avg  float64
	seen bool
	// maxDelay tracks the class delay distribution at this hop for
	// admission control (the d̂ of Section 9).
	maxDelay stats.Meter
}

// NewFIFOPlus returns an empty FIFO+ scheduler.
func NewFIFOPlus() *FIFOPlus {
	f := new(FIFOPlus)
	f.init()
	return f
}

// init makes a zero f an empty FIFO+ scheduler, as NewFIFOPlus does; a
// port's pipeline runs it on each class of its []FIFOPlus. The zero queue is
// ready, and so is the average; the meter takes its parameters.
func (f *FIFOPlus) init() {
	f.maxDelay.Init(1.0, 30)
}

// Enqueue inserts p ordered by its expected arrival time: actual arrival
// minus the accumulated jitter offset carried in the header.
func (f *FIFOPlus) Enqueue(p *packet.Packet, now float64) {
	f.q.Push(p, p.ExpectedArrival())
}

// Dequeue removes the packet whose expected arrival is earliest, measures the
// queueing delay it received at this hop, and folds the deviation from the
// class average into the packet's jitter-offset field.
func (f *FIFOPlus) Dequeue(now float64) *packet.Packet {
	p := f.q.Pop()
	if p == nil {
		return nil
	}
	delay := now - p.ArrivedAt
	if delay < 0 {
		delay = 0
	}
	if !f.seen {
		f.avg, f.seen = delay, true // first packet defines the average
	}
	// The deviation is measured against the class average *before* this
	// packet's own delay is folded in.
	p.JitterOffset += delay - f.avg
	f.avg += float64(fifoPlusGain * (delay - f.avg))
	f.maxDelay.AddMax(now, delay)
	return p
}

// Len implements Scheduler.
func (f *FIFOPlus) Len() int { return f.q.Len() }

// RecentMaxDelay returns a conservative (recent-windows maximum) estimate of
// the class delay at this hop, the d̂ input to admission control.
func (f *FIFOPlus) RecentMaxDelay(now float64) float64 { return f.maxDelay.Max(now) }

var _ Scheduler = (*FIFOPlus)(nil)
