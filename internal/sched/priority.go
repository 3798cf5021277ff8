package sched

import "ispn/internal/packet"

// Priority is a strict-priority scheduler over sub-schedulers. Level 0 is
// served first; a level is only served when all higher levels are empty. The
// paper uses priority to shift jitter from higher predicted-service classes
// onto lower ones and ultimately onto datagram traffic ("the next class sees
// as a baseline of operation the aggregate jitter of the higher class").
type Priority struct {
	levels   []Scheduler
	counts   []int // per-level occupancy, avoiding interface Len() calls
	classify func(*packet.Packet) int
	n        int
}

// ClassifyByHeader maps a packet to a priority level the way the unified
// scheduler does: datagram traffic always goes to the lowest level; predicted
// packets go to the level in their Priority header field (clamped).
func ClassifyByHeader(levels int) func(*packet.Packet) int {
	return func(p *packet.Packet) int {
		if p.Class == packet.Datagram {
			return levels - 1
		}
		l := int(p.Priority)
		if l >= levels-1 {
			l = levels - 2
			if l < 0 {
				l = 0
			}
		}
		return l
	}
}

// NewPriority returns a strict-priority scheduler over the given levels
// (level 0 highest). classify maps each packet to a level; out-of-range
// results are clamped. If classify is nil, ClassifyByHeader is used.
func NewPriority(levels []Scheduler, classify func(*packet.Packet) int) *Priority {
	if len(levels) == 0 {
		panic("sched: Priority needs at least one level")
	}
	if classify == nil {
		classify = ClassifyByHeader(len(levels))
	}
	return &Priority{levels: levels, counts: make([]int, len(levels)), classify: classify}
}

// Enqueue implements Scheduler.
func (pr *Priority) Enqueue(p *packet.Packet, now float64) {
	l := pr.classify(p)
	if l < 0 {
		l = 0
	}
	if l >= len(pr.levels) {
		l = len(pr.levels) - 1
	}
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
