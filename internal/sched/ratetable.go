package sched

import (
	"math"

	"ispn/internal/packet"
	"ispn/internal/queue"
)

// rateTable is the tag-ordered flow table under both rate schedulers. WFQ
// and VirtualClock differ only in how they stamp an arriving packet (virtual
// time against a per-flow real-time clock); everything else — the flows,
// draining a removed flow, serving the smallest head tag — is this table's,
// written once.
//
// A flow's packets may be reordered internally by a child scheduler (the
// unified scheduler's pseudo flow 0 contains priority classes and FIFO+):
// tags are kept in a per-flow FIFO of their own, and the table consumes the
// oldest tag whenever it serves the flow, regardless of which packet the
// child yields. Bandwidth accounting is thus in arrival order while the
// intra-flow order is the child's business.
type rateTable struct {
	flows []*rateFlow // registration order, flow 0 first, for deterministic ties
	// byID maps the id of every guaranteed flow to its flow. It is made
	// when the first guaranteed flow registers, and reading a nil map finds
	// nothing.
	byID map[uint32]*rateFlow
	n    int
	// flow0 is pseudo flow 0, held inline: registered first by the
	// pipeline's builder, never removed, and the flow of every packet
	// without a reservation here. flows starts on flow0Buf. A table
	// therefore points into itself and must not be copied once built.
	flow0    rateFlow
	flow0Buf [1]*rateFlow
}

type rateFlow struct {
	id      uint32
	rate    float64
	last    float64 // newest tag issued: WFQ's last finish tag, VirtualClock's per-flow clock
	tags    queue.FloatRing
	child   Scheduler
	closing bool // unregister once the backlog drains (RemoveGuaranteed mid-run)
}

// init registers flow 0 at the given rate, its packets ordered by child.
func (t *rateTable) init(rate float64, child Scheduler) {
	t.flow0 = rateFlow{id: Flow0ID, rate: rate, child: child}
	t.flow0Buf[0] = &t.flow0
	t.flows = t.flow0Buf[:]
}

// add registers a guaranteed flow served FIFO within itself.
func (t *rateTable) add(id uint32, rate float64) {
	f := &rateFlow{id: id, rate: rate, child: NewFIFO()}
	if t.byID == nil {
		t.byID = make(map[uint32]*rateFlow)
	}
	t.byID[id] = f
	t.flows = append(t.flows, f)
}

func (t *rateTable) unregister(f *rateFlow) {
	delete(t.byID, f.id)
	for i, g := range t.flows {
		if g == f {
			t.flows = append(t.flows[:i], t.flows[i+1:]...)
			break
		}
	}
}

// push queues p on f under the tag the caller's stamp rule produced.
func (t *rateTable) push(f *rateFlow, tag float64, p *packet.Packet, now float64) {
	f.last = tag
	f.tags.Push(tag)
	f.child.Enqueue(p, now)
	t.n++
}

// pick returns the backlogged flow with the smallest oldest tag, breaking
// ties by registration order.
func (t *rateTable) pick() *rateFlow {
	var best *rateFlow
	bestTag := math.Inf(1)
	for _, f := range t.flows {
		if f.tags.Len() == 0 {
			continue
		}
		if tag := f.tags.Peek(); tag < bestTag {
			bestTag = tag
			best = f
		}
	}
	return best
}

// pop serves the picked flow: its oldest tag is consumed, its child yields
// the packet, and a closing flow that just drained is unregistered. The
// table must not be empty.
func (t *rateTable) pop(now float64) (*rateFlow, *packet.Packet) {
	f := t.pick()
	f.tags.Pop()
	p := f.child.Dequeue(now)
	if p == nil {
		panic("sched: flow tag/packet count mismatch")
	}
	t.n--
	if f.closing && f.tags.Len() == 0 {
		t.unregister(f)
	}
	return f, p
}
