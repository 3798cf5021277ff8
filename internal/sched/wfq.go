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

// setRate changes f's clock rate. If f is backlogged the active-rate sum is
// adjusted so virtual time stays consistent; packets already stamped keep
// their tags.
func (w *WFQ) setRate(f *rateFlow, rate float64) {
	if f.tags.Len() > 0 {
		w.activeRate += rate - f.rate
	}
	f.rate = rate
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

// Dequeue serves the flow with the smallest head tag, or returns nil if
// none is backlogged.
func (w *WFQ) Dequeue(now float64) *packet.Packet {
	if w.n == 0 {
		return nil
	}
	w.advance(now)
	f, p := w.pop(now)
	if w.n == 0 {
		w.activeRate = 0
	} else if f.tags.Len() == 0 {
		w.activeRate -= f.rate
	}
	return p
}
