package sched

import (
	"math"
	"math/rand"
	"testing"

	"ispn/internal/packet"
)

// The model: a reserving pipeline's behaviour with no table at all — one
// slice of stamped packets per flow, flows found by scanning, the backlog
// counted by summing, flow 0 first and holding the leftover µ − Σ r.
// "Stamp on arrival, serve the smallest head tag, ties to the flow
// registered first", with wfq selecting which of the two stamp rules
// applies (the arithmetic is spelled in the same order as the pipeline's
// and the schedulers', so tags agree to the bit and ties fall the same
// way).
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
	flows []*modelFlow // registration order, flow 0 first

	wfq                    bool
	linkRate, reserved     float64
	vt, lastUpdate, active float64
}

func newRateModel(wfq bool, linkRate float64) *rateModel {
	return &rateModel{flows: []*modelFlow{{id: Flow0ID, rate: linkRate}}, wfq: wfq, linkRate: linkRate}
}

// find returns the guaranteed flow id, draining or not, or nil.
func (m *rateModel) find(id uint32) *modelFlow {
	for _, f := range m.flows[1:] {
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

func (m *rateModel) setRate(f *modelFlow, rate float64) {
	if m.wfq && len(f.q) > 0 {
		m.active += rate - f.rate
	}
	f.rate = rate
}

// leftover gives flow 0 what the reservations leave of the link.
func (m *rateModel) leftover() { m.setRate(m.flows[0], m.linkRate-m.reserved) }

func (m *rateModel) add(id uint32, rate float64) {
	if f := m.find(id); f != nil { // still draining: revive
		f.closing = false
		m.setRate(f, rate)
	} else {
		m.flows = append(m.flows, &modelFlow{id: id, rate: rate})
	}
	m.reserved += rate
	m.leftover()
}

func (m *rateModel) changeRate(f *modelFlow, rate float64) {
	m.reserved += rate - f.rate
	m.setRate(f, rate)
	m.leftover()
}

func (m *rateModel) remove(f *modelFlow) {
	f.closing = true
	m.reap(f)
	m.reserved -= f.rate
	m.leftover()
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
}

func (m *rateModel) enqueue(p *packet.Packet, now float64) {
	f := m.flows[0]
	if g := m.find(p.FlowID); g != nil && p.Class == packet.Guaranteed {
		f = g
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
		m.active -= best.rate
		if m.len() == 0 {
			m.active = 0
		}
	}
	m.reap(best)
	return p
}

// TestRateTableMatchesNaiveModel drives wfq and virtualclock pipelines and
// the model through the same 20 000 seeded operations — reservation,
// removal with a backlog, re-reserving an id while it drains, rate and
// link-rate changes, guaranteed packets and packets for flow 0 — and
// requires the same packet from every dequeue, the same Len after every
// step, and (wfq) the same backlogged-rate sum, which returns to exactly 0
// whenever the pipeline drains. Rates, sizes and arrival instants come from
// small sets, so equal head tags (the registration-order tie-break) are the
// common case, not the corner.
func TestRateTableMatchesNaiveModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind string
	}{
		{"WFQ", KindWFQ},
		{"VirtualClock", KindVirtualClock},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1992))
			s, m := mustPipeline(Profile{Kind: tc.kind}), newRateModel(tc.kind == KindWFQ, 1e6)
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
				case op < 9:
					class := packet.Guaranteed
					if op == 0 {
						class = packet.Predicted
					}
					p := &packet.Packet{FlowID: id, Seq: uint64(step), Size: 500 * (1 + rng.Intn(2)), Class: class}
					s.Enqueue(p, now)
					m.enqueue(p, now)
				case op < 15:
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
				case op < 17:
					if f != nil && !f.closing || m.reserved+rate >= m.linkRate {
						continue
					}
					s.AddGuaranteed(id, rate)
					m.add(id, rate)
				case op < 18:
					s.RemoveGuaranteed(id)
					if f != nil && !f.closing {
						m.remove(f)
					}
				case op < 19:
					if f == nil || f.closing || m.reserved-f.rate+rate >= m.linkRate {
						continue
					}
					s.SetGuaranteedRate(id, rate)
					m.changeRate(f, rate)
				default:
					mu := 5e5 * float64(1+rng.Intn(3))
					if mu <= m.reserved {
						continue
					}
					s.SetLinkRate(mu, now)
					m.advance(now)
					m.linkRate = mu
					m.leftover()
				}
				if s.Len() != m.len() {
					t.Fatalf("step %d: Len = %d, model holds %d", step, s.Len(), m.len())
				}
				if m.wfq && s.wfq.activeRate != m.active {
					t.Fatalf("step %d: backlogged-rate sum = %v, model %v", step, s.wfq.activeRate, m.active)
				}
				if s.Reserved() != m.reserved {
					t.Fatalf("step %d: Reserved = %v, model %v", step, s.Reserved(), m.reserved)
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
			if r5, r0 := clockRate(pl, 5), clockRate(pl, Flow0ID); r5 != 3e5 || r0 != 7e5 {
				t.Fatalf("rates after revival: flow 5 = %v, flow 0 = %v; want 3e5 and 7e5", r5, r0)
			}
			pl.Enqueue(pktClass(5, 3, 1000, packet.Guaranteed, 0), 0)
			for seq := uint64(0); seq < 4; seq++ {
				if p := pl.Dequeue(0.001 * float64(seq)); p == nil || p.Seq != seq {
					t.Fatalf("dequeue %d = %+v, want flow 5 seq %d", seq, p, seq)
				}
			}
			// The revived flow outlives its old tail: it is live, not closing.
			if got := clockRate(pl, 5); got != 3e5 {
				t.Fatalf("flow 5 rate = %v once drained, want it still registered at 3e5", got)
			}
			pl.RemoveGuaranteed(5)
			if clockRate(pl, 5) != 0 || pl.Reserved() != 0 {
				t.Fatalf("after final removal: rate %v, reserved %v", clockRate(pl, 5), pl.Reserved())
			}
		})
	}
}
