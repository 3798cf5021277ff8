package sched

import (
	"math"

	"ispn/internal/packet"
)

// WFQ is weighted fair queueing — the paper's Section 4 isolation mechanism,
// equivalent to Parekh–Gallager's PGPS. Each flow α owns a clock rate r_α
// (bits/second); when backlogged it receives at least the share
// r_α / Σ r_β of the link.
//
// Implementation: the standard virtual-time realization over the shared
// rateTable. Virtual time V advances at rate µ / Σ_{backlogged} r; an
// arriving packet is stamped with a finish tag F = max(V, F_prev) + size/r,
// and the table serves the flow whose oldest outstanding tag is smallest.
type WFQ struct {
	rateTable
	linkRate float64

	vt         float64 // virtual time
	lastUpdate float64
	activeRate float64 // Σ rates of backlogged flows
}

// NewWFQ returns an empty WFQ scheduler for a link of the given rate
// (bits/second).
func NewWFQ(linkRate float64) *WFQ {
	if linkRate <= 0 {
		panic("sched: WFQ link rate must be positive")
	}
	return &WFQ{rateTable: newRateTable(), linkRate: linkRate}
}

// AddFlow registers a flow with the given clock rate. Packets of the flow are
// served FIFO within the flow. It panics if the rate is not positive or the
// id is registered and live; an id still draining after RemoveFlow is revived
// at the new rate.
func (w *WFQ) AddFlow(id uint32, rate float64) {
	w.AddFlowScheduler(id, rate, NewFIFO())
}

// AddFlowScheduler registers a flow whose internal service order is delegated
// to child (used for the unified scheduler's pseudo flow 0).
func (w *WFQ) AddFlowScheduler(id uint32, rate float64, child Scheduler) {
	if w.add(id, rate, child) {
		w.SetRate(id, rate)
	}
}

// SetRate changes a flow's clock rate. If the flow is currently backlogged
// the active-rate sum is adjusted so virtual time stays consistent.
func (w *WFQ) SetRate(id uint32, rate float64) {
	if f, old := w.setRate(id, rate); f.tags.Len() > 0 {
		w.activeRate += rate - old
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

// enqueueOn stamps p with its finish tag and queues it on f, a flow of w's
// table.
func (w *WFQ) enqueueOn(f *rateFlow, p *packet.Packet, now float64) {
	w.advance(now)
	if w.n == 0 {
		// New busy period: restart the virtual clock so old finish
		// tags cannot starve newly arriving flows.
		w.vt = 0
		for _, g := range w.flows {
			g.last = 0
		}
	}
	if f.tags.Len() == 0 {
		w.activeRate += f.rate
	}
	w.push(f, math.Max(w.vt, f.last)+float64(p.Size)/f.rate, p, now)
}

// Dequeue implements Scheduler.
func (w *WFQ) Dequeue(now float64) *packet.Packet {
	if w.n == 0 {
		return nil
	}
	w.advance(now)
	f, p := w.pop(now)
	if f.tags.Len() == 0 {
		w.activeRate -= f.rate
		if w.activeRate < 1e-9 {
			w.activeRate = 0
		}
	}
	return p
}

var _ Scheduler = (*WFQ)(nil)
