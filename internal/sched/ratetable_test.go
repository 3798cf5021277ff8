package sched

import (
	"math"
	"math/rand"
	"testing"

	"ispn/internal/packet"
)

// The model: the rate schedulers' behaviour with no table at all — one
// slice of stamped packets per flow, flows found by scanning, the backlog
// counted by summing. "Stamp on arrival, serve the smallest head tag, ties
// to the flow registered first", with wfq selecting which of the two stamp
// rules applies (the arithmetic is spelled in the same order as the
// schedulers', so tags agree to the bit and ties fall the same way).
type modelFlow struct {
	id         uint32
	rate, last float64
	q          []modelPkt
	closing    bool
}

type modelPkt struct {
	tag float64
	p   *packet.Packet
}

type rateModel struct {
	flows    []*modelFlow // registration order
	fallback *modelFlow

	wfq                              bool
	linkRate, vt, lastUpdate, active float64
}

func (m *rateModel) find(id uint32) *modelFlow {
	for _, f := range m.flows {
		if f.id == id {
			return f
		}
	}
	return nil
}

func (m *rateModel) len() (n int) {
	for _, f := range m.flows {
		n += len(f.q)
	}
	return n
}

func (m *rateModel) advance(now float64) {
	if m.wfq && now > m.lastUpdate {
		if m.active > 0 {
			m.vt += (now - m.lastUpdate) * m.linkRate / m.active
		}
		m.lastUpdate = now
	}
}

func (m *rateModel) add(id uint32, rate float64) {
	if f := m.find(id); f != nil { // still draining: revive
		f.closing = false
		m.setRate(id, rate)
		return
	}
	m.flows = append(m.flows, &modelFlow{id: id, rate: rate})
}

func (m *rateModel) setRate(id uint32, rate float64) {
	f := m.find(id)
	if m.wfq && len(f.q) > 0 {
		m.active += rate - f.rate
	}
	f.rate = rate
}

func (m *rateModel) remove(id uint32) {
	if f := m.find(id); f != nil {
		f.closing = true
		m.reap(f)
	}
}

// reap forgets a closing flow once it holds nothing.
func (m *rateModel) reap(f *modelFlow) {
	if !f.closing || len(f.q) > 0 {
		return
	}
	for i, g := range m.flows {
		if g == f {
			m.flows = append(m.flows[:i], m.flows[i+1:]...)
			break
		}
	}
	if m.fallback == f {
		m.fallback = nil
	}
}

func (m *rateModel) enqueue(p *packet.Packet, now float64) {
	f := m.find(p.FlowID)
	if f == nil {
		f = m.fallback
	}
	start := math.Max(now, f.last) // VirtualClock: the flow's own real-time clock
	if m.wfq {
		m.advance(now)
		if m.len() == 0 { // new busy period
			m.vt = 0
			for _, g := range m.flows {
				g.last = 0
			}
		}
		if len(f.q) == 0 {
			m.active += f.rate
		}
		start = math.Max(m.vt, f.last)
	}
	f.last = start + float64(p.Size)/f.rate
	f.q = append(f.q, modelPkt{f.last, p})
}

func (m *rateModel) dequeue(now float64) *packet.Packet {
	m.advance(now)
	var best *modelFlow
	for _, f := range m.flows {
		if len(f.q) > 0 && (best == nil || f.q[0].tag < best.q[0].tag) {
			best = f
		}
	}
	if best == nil {
		return nil
	}
	p := best.q[0].p
	best.q = best.q[1:]
	if m.wfq && len(best.q) == 0 {
		if m.active -= best.rate; m.active < 1e-9 {
			m.active = 0
		}
	}
	m.reap(best)
	return p
}

// TestRateTableMatchesNaiveModel drives WFQ and VirtualClock and the model
// through the same 20 000 seeded operations — registration, removal with a
// backlog, re-adding an id while it drains, rate and link-rate changes,
// moving the fallback — and requires the same packet from every dequeue and
// the same Len after every step. Rates, sizes and arrival instants come
// from small sets, so equal head tags (the registration-order tie-break)
// are the common case, not the corner.
func TestRateTableMatchesNaiveModel(t *testing.T) {
	type rateSched interface {
		Scheduler
		AddFlow(id uint32, rate float64)
		RemoveFlow(id uint32)
		SetRate(id uint32, rate float64)
		SetFallback(id uint32)
	}
	for _, tc := range []struct {
		name string
		s    rateSched
		wfq  bool
	}{
		{"WFQ", NewWFQ(1e6), true},
		{"VirtualClock", NewVirtualClock(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1992))
			s, m := tc.s, &rateModel{wfq: tc.wfq, linkRate: 1e6}
			rates := []float64{1e5, 2e5, 2.5e5}
			now := 0.0
			ties := 0
			for step := 0; step < 20000; step++ {
				if rng.Intn(3) == 0 {
					now += float64(rng.Intn(4)) * 0.001
				}
				id := uint32(rng.Intn(8))
				rate := rates[rng.Intn(len(rates))]
				f := m.find(id)
				switch op := rng.Intn(20); {
				case op < 8:
					if f == nil && m.fallback == nil {
						continue
					}
					p := &packet.Packet{FlowID: id, Seq: uint64(step), Size: 500 * (1 + rng.Intn(2))}
					s.Enqueue(p, now)
					m.enqueue(p, now)
				case op < 14:
					heads := map[float64]bool{}
					for _, g := range m.flows {
						if len(g.q) > 0 {
							if heads[g.q[0].tag] {
								ties++
							}
							heads[g.q[0].tag] = true
						}
					}
					want := m.dequeue(now)
					if got := s.Dequeue(now); got != want {
						t.Fatalf("step %d: Dequeue = %+v, model serves %+v", step, got, want)
					}
				case op < 16:
					if f != nil && !f.closing {
						continue
					}
					s.AddFlow(id, rate)
					m.add(id, rate)
				case op < 17:
					s.RemoveFlow(id)
					m.remove(id)
				case op < 18:
					if f == nil {
						continue
					}
					s.SetRate(id, rate)
					m.setRate(id, rate)
				case op < 19:
					if f == nil {
						continue
					}
					s.SetFallback(id)
					m.fallback = f
				default:
					if w, ok := s.(*WFQ); ok {
						mu := 5e5 * float64(1+rng.Intn(3))
						w.SetLinkRate(mu, now)
						m.advance(now)
						m.linkRate = mu
					}
				}
				if s.Len() != m.len() {
					t.Fatalf("step %d: Len = %d, model holds %d", step, s.Len(), m.len())
				}
			}
			for m.len() > 0 {
				if got, want := s.Dequeue(now), m.dequeue(now); got != want {
					t.Fatalf("drain: Dequeue = %+v, model serves %+v", got, want)
				}
			}
			if s.Len() != 0 {
				t.Fatalf("Len = %d after the model drained", s.Len())
			}
			if ties < 100 {
				t.Fatalf("only %d dequeues saw tied head tags; the tie-break is not being exercised", ties)
			}
		})
	}
}

// TestReAddWhileDrainingRevives is the id-reuse regression: a guaranteed
// flow removed with a backlog keeps its registration until it drains, and
// re-reserving the same id in that window must revive it — new rate, old
// tail still served first and in order — not panic "already registered".
func TestReAddWhileDrainingRevives(t *testing.T) {
	for _, kind := range []string{KindUnified, KindWFQ, KindVirtualClock} {
		t.Run(kind, func(t *testing.T) {
			pl, err := NewPipeline(Profile{Kind: kind}, 1e6)
			if err != nil {
				t.Fatal(err)
			}
			pl.AddGuaranteed(5, 1e5)
			for seq := uint64(0); seq < 3; seq++ {
				pl.Enqueue(pktClass(5, seq, 1000, packet.Guaranteed, 0), 0)
			}
			pl.RemoveGuaranteed(5)
			if got := pl.Reserved(); got != 0 {
				t.Fatalf("Reserved = %v after removal, want 0", got)
			}
			pl.AddGuaranteed(5, 3e5)
			if got := pl.Reserved(); got != 3e5 {
				t.Fatalf("Reserved = %v after re-adding at 3e5", got)
			}
			rs := pl.(interface{ Rate(uint32) float64 })
			if r5, r0 := rs.Rate(5), rs.Rate(Flow0ID); r5 != 3e5 || r0 != 7e5 {
				t.Fatalf("rates after revival: flow 5 = %v, flow 0 = %v; want 3e5 and 7e5", r5, r0)
			}
			pl.Enqueue(pktClass(5, 3, 1000, packet.Guaranteed, 0), 0)
			for seq := uint64(0); seq < 4; seq++ {
				if p := pl.Dequeue(0.001 * float64(seq)); p == nil || p.Seq != seq {
					t.Fatalf("dequeue %d = %+v, want flow 5 seq %d", seq, p, seq)
				}
			}
			// The revived flow outlives its old tail: it is live, not closing.
			if got := rs.Rate(5); got != 3e5 {
				t.Fatalf("flow 5 rate = %v once drained, want it still registered at 3e5", got)
			}
			pl.RemoveGuaranteed(5)
			if rs.Rate(5) != 0 || pl.Reserved() != 0 {
				t.Fatalf("after final removal: rate %v, reserved %v", rs.Rate(5), pl.Reserved())
			}
		})
	}
}
