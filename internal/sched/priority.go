package sched

import "ispn/internal/packet"

// Priority is a strict-priority scheduler over sub-schedulers. Level 0 is
// served first; a level is only served when all higher levels are empty. The
// paper uses priority to shift jitter from higher predicted-service classes
// onto lower ones and ultimately onto datagram traffic ("the next class sees
// as a baseline of operation the aggregate jitter of the higher class").
type Priority struct {
	levels []Scheduler
	counts []int // per-level occupancy, avoiding interface Len() calls
	n      int
}

// NewPriority returns a strict-priority scheduler over the given levels
// (level 0 highest) that places each packet by its header (see level).
func NewPriority(levels []Scheduler) *Priority {
	if len(levels) == 0 {
		panic("sched: Priority needs at least one level")
	}
	return &Priority{levels: levels, counts: make([]int, len(levels))}
}

// level maps a packet to a priority level the way the unified scheduler
// does: datagram traffic always goes to the lowest level; predicted packets
// go to the level in their Priority header field, clamped to the lowest
// predicted level.
func (pr *Priority) level(p *packet.Packet) int {
	last := len(pr.levels) - 1
	if p.Class == packet.Datagram {
		return last
	}
	return max(min(int(p.Priority), last-1), 0)
}

// Enqueue implements Scheduler.
func (pr *Priority) Enqueue(p *packet.Packet, now float64) {
	l := pr.level(p)
	pr.levels[l].Enqueue(p, now)
	pr.counts[l]++
	pr.n++
}

// Dequeue implements Scheduler.
func (pr *Priority) Dequeue(now float64) *packet.Packet {
	for l, c := range pr.counts {
		if c > 0 {
			pr.counts[l]--
			pr.n--
			return pr.levels[l].Dequeue(now)
		}
	}
	return nil
}

// Len implements Scheduler.
func (pr *Priority) Len() int { return pr.n }

var _ Scheduler = (*Priority)(nil)
