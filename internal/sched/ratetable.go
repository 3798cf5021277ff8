package sched

import (
	"fmt"
	"math"

	"ispn/internal/packet"
	"ispn/internal/queue"
)

// rateTable is the tag-ordered flow table under both rate schedulers. WFQ
// and VirtualClock differ only in how they stamp an arriving packet (virtual
// time against a per-flow real-time clock); everything else — registration,
// the fallback flow, draining a removed flow, serving the smallest head tag
// — is this table's, written once.
//
// A flow's packets may be reordered internally by a child scheduler (the
// unified scheduler's pseudo flow 0 contains priority classes and FIFO+):
// tags are kept in a per-flow FIFO of their own, and the table consumes the
// oldest tag whenever it serves the flow, regardless of which packet the
// child yields. Bandwidth accounting is thus in arrival order while the
// intra-flow order is the child's business.
type rateTable struct {
	flows    []*rateFlow          // registration order, for deterministic ties
	byID     map[uint32]*rateFlow // flow id -> flow
	fallback *rateFlow            // flow for unregistered ids (pseudo flow 0), optional
	n        int
}

type rateFlow struct {
	id      uint32
	rate    float64
	last    float64 // newest tag issued: WFQ's last finish tag, VirtualClock's per-flow clock
	tags    queue.FloatRing
	child   Scheduler
	closing bool // unregister once the backlog drains (RemoveFlow mid-run)
}

func newRateTable() rateTable {
	return rateTable{byID: make(map[uint32]*rateFlow)}
}

// add registers a flow whose internal service order is child's. It panics if
// the rate is not positive or the id is registered and live. An id that is
// still draining after RemoveFlow is revived instead — its queued tail keeps
// its place and its child — and add reports true so the caller applies the
// new rate through its own SetRate.
func (t *rateTable) add(id uint32, rate float64, child Scheduler) (revived bool) {
	if rate <= 0 {
		panic("sched: flow rate must be positive")
	}
	if f, dup := t.byID[id]; dup {
		if !f.closing {
			panic(fmt.Sprintf("sched: flow %d already registered", id))
		}
		f.closing = false
		return true
	}
	f := &rateFlow{id: id, rate: rate, child: child}
	t.flows = append(t.flows, f)
	t.byID[id] = f
	return false
}

// SetFallback directs packets of unregistered flow ids to the flow registered
// under fallbackID. The port pipelines route all predicted and datagram
// traffic this way (pseudo flow 0).
func (t *rateTable) SetFallback(fallbackID uint32) {
	f, ok := t.byID[fallbackID]
	if !ok {
		panic("sched: fallback flow not registered")
	}
	t.fallback = f
}

// setRate changes a flow's clock rate and returns the flow and its old rate;
// packets already stamped keep their tags.
func (t *rateTable) setRate(id uint32, rate float64) (f *rateFlow, old float64) {
	if rate <= 0 {
		panic("sched: flow rate must be positive")
	}
	f, ok := t.byID[id]
	if !ok {
		panic("sched: SetRate on unknown flow")
	}
	old, f.rate = f.rate, rate
	return f, old
}

// Rate returns the clock rate of flow id (0 if unknown).
func (t *rateTable) Rate(id uint32) float64 {
	if f, ok := t.byID[id]; ok {
		return f.rate
	}
	return 0
}

// RemoveFlow unregisters a flow. An empty flow is dropped immediately; a
// backlogged flow (a mid-run departure with packets still queued) is marked
// closing and keeps draining at its clock rate, unregistering itself after
// its last dequeue. Until then the id stays registered, so its in-flight
// packets are still served in order.
func (t *rateTable) RemoveFlow(id uint32) {
	f, ok := t.byID[id]
	if !ok {
		return
	}
	if f.tags.Len() > 0 {
		f.closing = true
		return
	}
	t.unregister(f)
}

func (t *rateTable) unregister(f *rateFlow) {
	delete(t.byID, f.id)
	for i, g := range t.flows {
		if g == f {
			t.flows = append(t.flows[:i], t.flows[i+1:]...)
			break
		}
	}
	if t.fallback == f {
		t.fallback = nil
	}
}

// flowOf returns p's own flow, else the fallback.
func (t *rateTable) flowOf(p *packet.Packet) *rateFlow {
	if f, ok := t.byID[p.FlowID]; ok {
		return f
	}
	return t.fallbackFlow(p)
}

func (t *rateTable) fallbackFlow(p *packet.Packet) *rateFlow {
	if t.fallback == nil {
		panic(fmt.Sprintf("sched: packet for unknown flow %d and no fallback", p.FlowID))
	}
	return t.fallback
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

// Len implements Scheduler.
func (t *rateTable) Len() int { return t.n }
