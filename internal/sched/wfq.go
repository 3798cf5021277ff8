package sched

import (
	"fmt"
	"math"

	"ispn/internal/packet"
	"ispn/internal/queue"
)

// WFQ is weighted fair queueing — the paper's Section 4 isolation mechanism,
// equivalent to Parekh–Gallager's PGPS. Each flow α owns a clock rate r_α
// (bits/second); when backlogged it receives at least the share
// r_α / Σ r_β of the link.
//
// Implementation: the standard virtual-time realization. Virtual time V
// advances at rate µ / Σ_{backlogged} r; an arriving packet is stamped with a
// finish tag F = max(V, F_prev) + size/r, and the flow whose oldest
// outstanding tag is smallest is served first.
//
// A flow's packets may be reordered internally by a child scheduler (the
// unified scheduler's pseudo flow 0 contains priority classes and FIFO+):
// tags are kept in a per-flow FIFO of their own, and WFQ consumes the oldest
// tag whenever it serves the flow, regardless of which packet the child
// yields. WFQ bandwidth accounting is thus in arrival order while the
// intra-flow order is the child's business.
type WFQ struct {
	linkRate float64
	flows    []*wfqFlow          // registration order, for deterministic ties
	byID     map[uint32]*wfqFlow // flow id -> flow
	fallback *wfqFlow            // flow for unregistered ids (pseudo flow 0), optional

	vt         float64 // virtual time
	lastUpdate float64
	activeRate float64 // Σ rates of backlogged flows
	n          int
}

type wfqFlow struct {
	id         uint32
	rate       float64
	lastFinish float64
	tags       queue.FloatRing
	child      Scheduler
	closing    bool // unregister once the backlog drains (RemoveFlow mid-run)
}

// NewWFQ returns an empty WFQ scheduler for a link of the given rate
// (bits/second).
func NewWFQ(linkRate float64) *WFQ {
	if linkRate <= 0 {
		panic("sched: WFQ link rate must be positive")
	}
	return &WFQ{linkRate: linkRate, byID: make(map[uint32]*wfqFlow)}
}

// AddFlow registers a flow with the given clock rate. Packets of the flow are
// served FIFO within the flow. It panics if the id is already registered or
// the rate is not positive.
func (w *WFQ) AddFlow(id uint32, rate float64) {
	w.AddFlowScheduler(id, rate, NewFIFO())
}

// AddFlowScheduler registers a flow whose internal service order is delegated
// to child (used for the unified scheduler's pseudo flow 0).
func (w *WFQ) AddFlowScheduler(id uint32, rate float64, child Scheduler) {
	if rate <= 0 {
		panic("sched: WFQ flow rate must be positive")
	}
	if _, dup := w.byID[id]; dup {
		panic(fmt.Sprintf("sched: WFQ flow %d already registered", id))
	}
	f := &wfqFlow{id: id, rate: rate, child: child}
	w.flows = append(w.flows, f)
	w.byID[id] = f
}

// SetFallback directs packets of unregistered flow ids to the flow registered
// under fallbackID. The unified scheduler routes all predicted and datagram
// traffic this way.
func (w *WFQ) SetFallback(fallbackID uint32) {
	f, ok := w.byID[fallbackID]
	if !ok {
		panic("sched: WFQ fallback flow not registered")
	}
	w.fallback = f
}

// SetRate changes a flow's clock rate. If the flow is currently backlogged
// the active-rate sum is adjusted so virtual time stays consistent.
func (w *WFQ) SetRate(id uint32, rate float64) {
	if rate <= 0 {
		panic("sched: WFQ flow rate must be positive")
	}
	f, ok := w.byID[id]
	if !ok {
		panic("sched: WFQ SetRate on unknown flow")
	}
	if f.tags.Len() > 0 {
		w.activeRate += rate - f.rate
	}
	f.rate = rate
}

// RemoveFlow unregisters a flow. An empty flow is dropped immediately; a
// backlogged flow (a mid-run departure with packets still queued) is marked
// closing and keeps draining at its clock rate, unregistering itself after
// its last dequeue. Until then the id stays registered, so its in-flight
// packets are still served in order.
func (w *WFQ) RemoveFlow(id uint32) {
	f, ok := w.byID[id]
	if !ok {
		return
	}
	if f.tags.Len() > 0 {
		f.closing = true
		return
	}
	w.unregister(f)
}

func (w *WFQ) unregister(f *wfqFlow) {
	delete(w.byID, f.id)
	for i, g := range w.flows {
		if g == f {
			w.flows = append(w.flows[:i], w.flows[i+1:]...)
			break
		}
	}
	if w.fallback == f {
		w.fallback = nil
	}
}

// SetLinkRate changes the link rate µ that drives virtual time. Virtual
// time is advanced to now first, so the change only affects service from now
// on (mid-run link reconfiguration).
func (w *WFQ) SetLinkRate(rate, now float64) {
	if rate <= 0 {
		panic("sched: WFQ link rate must be positive")
	}
	w.advance(now)
	w.linkRate = rate
}

// LinkRate returns the configured link rate.
func (w *WFQ) LinkRate() float64 { return w.linkRate }

// Rate returns the clock rate of flow id (0 if unknown).
func (w *WFQ) Rate(id uint32) float64 {
	if f, ok := w.byID[id]; ok {
		return f.rate
	}
	return 0
}

func (w *WFQ) flowOf(p *packet.Packet) *wfqFlow {
	if f, ok := w.byID[p.FlowID]; ok {
		return f
	}
	if w.fallback != nil {
		return w.fallback
	}
	panic(fmt.Sprintf("sched: WFQ packet for unknown flow %d and no fallback", p.FlowID))
}

// advance moves virtual time forward to now at the GPS rate.
func (w *WFQ) advance(now float64) {
	if now > w.lastUpdate {
		if w.activeRate > 0 {
			w.vt += (now - w.lastUpdate) * w.linkRate / w.activeRate
		}
		w.lastUpdate = now
	}
}

// Enqueue implements Scheduler.
func (w *WFQ) Enqueue(p *packet.Packet, now float64) {
	w.enqueueOn(w.flowOf(p), p, now)
}

// EnqueueFallback enqueues p directly on the fallback flow, skipping the
// per-flow map lookup — the unified scheduler's fast path for predicted and
// datagram traffic, which all shares pseudo flow 0.
func (w *WFQ) EnqueueFallback(p *packet.Packet, now float64) {
	if w.fallback == nil {
		panic("sched: WFQ EnqueueFallback without a fallback flow")
	}
	w.enqueueOn(w.fallback, p, now)
}

func (w *WFQ) enqueueOn(f *wfqFlow, p *packet.Packet, now float64) {
	w.advance(now)
	if w.n == 0 {
		// New busy period: restart the virtual clock so old finish
		// tags cannot starve newly arriving flows.
		w.vt = 0
		for _, g := range w.flows {
			g.lastFinish = 0
		}
	}
	start := math.Max(w.vt, f.lastFinish)
	finish := start + float64(p.Size)/f.rate
	f.lastFinish = finish
	if f.tags.Len() == 0 {
		w.activeRate += f.rate
	}
	f.tags.Push(finish)
	f.child.Enqueue(p, now)
	w.n++
}

// pick returns the backlogged flow with the smallest oldest tag, breaking
// ties by registration order.
func (w *WFQ) pick() *wfqFlow {
	var best *wfqFlow
	bestTag := math.Inf(1)
	for _, f := range w.flows {
		if f.tags.Len() == 0 {
			continue
		}
		if t := f.tags.Peek(); t < bestTag {
			bestTag = t
			best = f
		}
	}
	return best
}

// Dequeue implements Scheduler.
func (w *WFQ) Dequeue(now float64) *packet.Packet {
	if w.n == 0 {
		return nil
	}
	w.advance(now)
	f := w.pick()
	f.tags.Pop()
	if f.tags.Len() == 0 {
		w.activeRate -= f.rate
		if w.activeRate < 1e-9 {
			w.activeRate = 0
		}
		if f.closing {
			w.unregister(f)
		}
	}
	p := f.child.Dequeue(now)
	if p == nil {
		panic("sched: WFQ flow tag/packet count mismatch")
	}
	w.n--
	return p
}

// Peek implements Scheduler.
func (w *WFQ) Peek() *packet.Packet {
	if w.n == 0 {
		return nil
	}
	return w.pick().child.Peek()
}

// Len implements Scheduler.
func (w *WFQ) Len() int { return w.n }

var _ Scheduler = (*WFQ)(nil)

// NewFairQueueing returns WFQ configured as the original (unweighted) Fair
// Queueing algorithm of Demers, Keshav and Shenker: n flows with equal clock
// rates summing to the link rate.
func NewFairQueueing(linkRate float64, flowIDs []uint32) *WFQ {
	w := NewWFQ(linkRate)
	share := linkRate / float64(len(flowIDs))
	for _, id := range flowIDs {
		w.AddFlow(id, share)
	}
	return w
}
