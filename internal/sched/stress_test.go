package sched

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ispn/internal/packet"
)

// Randomized stress across the whole zoo: under arbitrary interleavings of
// enqueues and dequeues with monotone time, every discipline must conserve
// packets (no loss, no duplication) and keep Len consistent.

func allSchedulers() map[string]func() Scheduler {
	return map[string]func() Scheduler{
		"FIFO":  func() Scheduler { return NewFIFO() },
		"FIFO+": func() Scheduler { return NewFIFOPlus() },
		"Priority": func() Scheduler {
			return NewPriority([]Scheduler{NewFIFOPlus(), NewFIFOPlus(), NewFIFO()})
		},
		"WFQ":          func() Scheduler { return newRated(KindWFQ, 2e5, 2e5, 2e5, 2e5) },
		"VirtualClock": func() Scheduler { return newRated(KindVirtualClock, 2e5, 2e5, 2e5, 2e5) },
		"DRR":          func() Scheduler { return NewDRR(1000) },
		"Delay-EDD":    func() Scheduler { return NewDelayEDD(1/200.0, 0.01) },
		"Unified":      func() Scheduler { return mustPipeline(Profile{}) },
		"Stop-and-Go":  func() Scheduler { return NewStopAndGo(0.010) },
		// The two related-work pipeline kinds, as a port runs them.
		"edd pipeline": func() Scheduler {
			return mustPipeline(Profile{Kind: KindEDD, ClassTargets: []float64{0.030}})
		},
		"stopandgo pipeline": func() Scheduler {
			return mustPipeline(Profile{Kind: KindStopAndGo, ClassTargets: []float64{0.010}})
		},
	}
}

// schedulerNames returns the stress-matrix names in sorted order so the
// subtests run (and fail) in a deterministic sequence.
func schedulerNames(m map[string]func() Scheduler) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func TestSchedulerConservationStress(t *testing.T) {
	all := allSchedulers()
	for _, name := range schedulerNames(all) {
		mk := all[name]
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			s := mk()
			nonWC := holds(s)
			seen := map[uint64]int{}
			enq, deq := 0, 0
			now := 0.0
			var seq uint64
			for step := 0; step < 20000; step++ {
				now += rng.Float64() * 0.002
				if rng.Intn(2) == 0 || s.Len() == 0 {
					p := &packet.Packet{
						FlowID:       uint32(rng.Intn(4)),
						Seq:          seq,
						Size:         1000,
						Class:        packet.Class(rng.Intn(3)),
						Priority:     uint8(rng.Intn(2)),
						ArrivedAt:    now,
						JitterOffset: (rng.Float64() - 0.5) * 0.01,
					}
					seq++
					lenBefore := s.Len()
					s.Enqueue(p, now)
					enq++
					if s.Len() != lenBefore+1 {
						t.Fatalf("Len %d after enqueue, want %d", s.Len(), lenBefore+1)
					}
					seen[p.Seq]++
				} else {
					lenBefore := s.Len()
					got := s.Dequeue(now)
					if got == nil {
						if !nonWC {
							t.Fatalf("work-conserving %s returned nil with Len %d", name, lenBefore)
						}
						continue
					}
					deq++
					if s.Len() != lenBefore-1 {
						t.Fatalf("Len %d after dequeue, want %d", s.Len(), lenBefore-1)
					}
					seen[got.Seq]--
					if seen[got.Seq] < 0 {
						t.Fatalf("packet seq %d duplicated", got.Seq)
					}
				}
			}
			// Drain, jumping time forward for the holders.
			now += 3600
			for s.Len() > 0 {
				got := s.Dequeue(now)
				if got == nil {
					t.Fatalf("%s would not drain (Len %d)", name, s.Len())
				}
				deq++
				seen[got.Seq]--
				if seen[got.Seq] < 0 {
					t.Fatalf("packet seq %d duplicated during drain", got.Seq)
				}
			}
			if enq != deq {
				t.Fatalf("conservation: %d enqueued, %d dequeued", enq, deq)
			}
			//ispnvet:allow maprange: any nonzero balance fails the test; iteration order only picks which seq the failure message names
			for sq, n := range seen {
				if n != 0 {
					t.Fatalf("packet %d lost (balance %d)", sq, n)
				}
			}
		})
	}
}

// Work-conserving disciplines must never leave the link idle while packets
// are queued: Dequeue with Len>0 yields a packet, always.
func TestWorkConservationInvariant(t *testing.T) {
	all := allSchedulers()
	for _, name := range schedulerNames(all) {
		mk := all[name]
		s := mk()
		if holds(s) {
			continue
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			now := 0.0
			for i := 0; i < 200; i++ {
				now += rng.Float64()
				p := &packet.Packet{FlowID: uint32(rng.Intn(4)), Seq: uint64(i),
					Size: 1000, Class: packet.Predicted, ArrivedAt: now}
				s.Enqueue(p, now)
				if rng.Intn(3) == 0 {
					if s.Dequeue(now) == nil {
						t.Fatal("nil from non-empty work-conserving scheduler")
					}
				}
			}
		})
	}
}

// TestBacklogInvariance is pathwise work conservation at one link: with
// uniform packets, a discipline that never idles with a backlog sends its
// packets at the same instants as FIFO, whatever order it picks — the
// conservation law behind "the mean delays are about the same for the two
// algorithms". Every pipeline kind runs one trace of guaranteed, predicted
// and datagram packets; on the reserving kinds the guaranteed flows hold
// reservations. Each work-conserving kind must reproduce FIFO's departure
// instants as a multiset, and stopandgo, which holds packets to the end of
// their frame, must not.
func TestBacklogInvariance(t *testing.T) {
	const mu = 1e6
	mkTrace := func() []arrival {
		rng := rand.New(rand.NewSource(31))
		classes := []packet.Class{packet.Guaranteed, packet.Guaranteed, packet.Guaranteed,
			packet.Predicted, packet.Predicted, packet.Datagram}
		var arr []arrival
		now := 0.0
		for i := 0; i < 400; i++ {
			now += rng.ExpFloat64() * 0.0012
			flow := rng.Intn(len(classes))
			p := pktClass(uint32(flow), uint64(i), 1000, classes[flow], uint8(flow%2))
			arr = append(arr, arrival{t: now, p: p})
		}
		return arr
	}
	instants := func(out []delivery) []float64 {
		var ts []float64
		for _, d := range out {
			ts = append(ts, d.finish)
		}
		sort.Float64s(ts)
		return ts
	}
	fifo := instants(runLink(NewFIFO(), mu, mkTrace()))
	if len(fifo) != 400 {
		t.Fatalf("FIFO delivered %d of 400 packets", len(fifo))
	}
	for _, kind := range PipelineKinds() {
		t.Run(kind, func(t *testing.T) {
			pl := mustPipeline(Profile{Kind: kind})
			if pl.SupportsGuaranteed() {
				for flow := uint32(0); flow < 3; flow++ {
					pl.AddGuaranteed(flow, 2e5)
				}
			}
			var out []delivery
			if pl.WorkConserving() {
				out = runLink(pl, mu, mkTrace())
			} else {
				out = runLinkNWC(pl, mu, mkTrace())
			}
			got := instants(out)
			if len(got) != len(fifo) {
				t.Fatalf("delivered %d packets, FIFO %d", len(got), len(fifo))
			}
			same := true
			for i := range got {
				if math.Abs(got[i]-fifo[i]) > 1e-9 {
					if pl.WorkConserving() {
						t.Fatalf("departure %d at %v, FIFO's at %v", i, got[i], fifo[i])
					}
					same = false
				}
			}
			if !pl.WorkConserving() && same {
				t.Fatal("a kind that holds packets departed at FIFO's instants; the comparison cannot tell")
			}
		})
	}
}
