package sched

import (
	"math"

	"ispn/internal/packet"
)

// Test harness: simulate a single output link of rate mu (bits/s) driven by
// a time-ordered arrival list, the way an output port drives a scheduler.

type arrival struct {
	t float64
	p *packet.Packet
}

type delivery struct {
	p      *packet.Packet
	start  float64 // when transmission began (dequeue time)
	finish float64 // when the last bit left
}

// runLink serves arrivals through s on a link of rate mu and returns
// deliveries in transmission order.
func runLink(s Scheduler, mu float64, arrivals []arrival) []delivery {
	var out []delivery
	i := 0
	now := 0.0
	busy := false
	freeAt := 0.0
	for i < len(arrivals) || s.Len() > 0 || busy {
		nextArr := math.Inf(1)
		if i < len(arrivals) {
			nextArr = arrivals[i].t
		}
		if busy {
			if freeAt <= nextArr {
				now = freeAt
				busy = false
				continue
			}
			now = nextArr
			a := arrivals[i]
			a.p.ArrivedAt = now
			s.Enqueue(a.p, now)
			i++
			continue
		}
		if s.Len() > 0 {
			p := s.Dequeue(now)
			busy = true
			freeAt = now + float64(p.Size)/mu
			out = append(out, delivery{p: p, start: now, finish: freeAt})
			continue
		}
		if math.IsInf(nextArr, 1) {
			break
		}
		now = nextArr
		a := arrivals[i]
		a.p.ArrivedAt = now
		s.Enqueue(a.p, now)
		i++
	}
	return out
}

func pkt(flow uint32, seq uint64, size int) *packet.Packet {
	return &packet.Packet{FlowID: flow, Seq: seq, Size: size}
}

func pktClass(flow uint32, seq uint64, size int, class packet.Class, prio uint8) *packet.Packet {
	return &packet.Packet{FlowID: flow, Seq: seq, Size: size, Class: class, Priority: prio}
}

// runLinkNWC is runLink with support for non-work-conserving schedulers:
// when the scheduler holds packets, the clock jumps to NextEligible.
func runLinkNWC(s Scheduler, mu float64, arrivals []arrival) []delivery {
	var out []delivery
	i := 0
	now := 0.0
	for i < len(arrivals) || s.Len() > 0 {
		nextArr := math.Inf(1)
		if i < len(arrivals) {
			nextArr = arrivals[i].t
		}
		if s.Len() > 0 {
			if p := s.Dequeue(now); p != nil {
				finish := now + float64(p.Size)/mu
				out = append(out, delivery{p: p, start: now, finish: finish})
				if finish < nextArr {
					now = finish
					continue
				}
				now = finish
			} else {
				// Everything held: advance to the next event.
				t := math.Inf(1)
				if nwc, ok := s.(NonWorkConserving); ok {
					t = nwc.NextEligible(now)
				}
				if nextArr < t {
					t = nextArr
				}
				if math.IsInf(t, 1) {
					break
				}
				if t > now {
					now = t
				}
				for i < len(arrivals) && arrivals[i].t <= now {
					arrivals[i].p.ArrivedAt = arrivals[i].t
					s.Enqueue(arrivals[i].p, now)
					i++
				}
				continue
			}
		}
		if s.Len() == 0 && i < len(arrivals) {
			if nextArr > now {
				now = nextArr
			}
			for i < len(arrivals) && arrivals[i].t <= now {
				arrivals[i].p.ArrivedAt = arrivals[i].t
				s.Enqueue(arrivals[i].p, now)
				i++
			}
		}
	}
	return out
}
