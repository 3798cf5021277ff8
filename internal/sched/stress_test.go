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
		"FIFO+": func() Scheduler { return NewFIFOPlus(0) },
		"Priority": func() Scheduler {
			return NewPriority([]Scheduler{NewFIFOPlus(0), NewFIFOPlus(0), NewFIFO()}, nil)
		},
		"WFQ": func() Scheduler {
			w := NewWFQ(1e6)
			for f := 0; f < 4; f++ {
				w.AddFlow(uint32(f), 2.5e5)
			}
			return w
		},
		"VirtualClock": func() Scheduler {
			v := NewVirtualClock()
			for f := 0; f < 4; f++ {
				v.AddFlow(uint32(f), 2.5e5)
			}
			return v
		},
		"DRR": func() Scheduler { return NewDRR(1000) },
		"Delay-EDD": func() Scheduler {
			e := NewDelayEDD()
			for f := 0; f < 4; f++ {
				e.AddFlow(uint32(f), 200, 0.01)
			}
			return e
		},
		"Unified": func() Scheduler {
			return NewUnified(Profile{}.Normalize(), 1e6)
		},
		"Stop-and-Go": func() Scheduler { return NewStopAndGo(0.010) },
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
			nonWC := false
			if _, ok := s.(NonWorkConserving); ok {
				nonWC = true
			}
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
					// Unified panics on unreserved guaranteed
					// packets by design; stress it with the
					// other classes.
					if name == "Unified" && p.Class == packet.Guaranteed {
						p.Class = packet.Predicted
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
		if _, ok := s.(NonWorkConserving); ok {
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

// Total backlog trajectories agree across work-conserving disciplines when
// driven by the same arrival trace on the same link — the conservation law
// behind "the mean delays are about the same for the two algorithms"
// (uniform packet sizes).
func TestBacklogInvariance(t *testing.T) {
	mkTrace := func() []arrival {
		rng := rand.New(rand.NewSource(31))
		var arr []arrival
		now := 0.0
		for i := 0; i < 400; i++ {
			now += rng.ExpFloat64() * 0.0012
			arr = append(arr, arrival{t: now, p: pkt(uint32(rng.Intn(4)), uint64(i), 1000)})
		}
		return arr
	}
	sum := func(out []delivery) float64 {
		total := 0.0
		for _, d := range out {
			total += d.finish
		}
		return total
	}
	w := NewWFQ(1e6)
	for f := 0; f < 4; f++ {
		w.AddFlow(uint32(f), 2.5e5)
	}
	fifoSum := sum(runLink(NewFIFO(), 1e6, mkTrace()))
	wfqSum := sum(runLink(w, 1e6, mkTrace()))
	// Completion-time totals are identical for uniform packets under any
	// work-conserving discipline.
	if math.Abs(fifoSum-wfqSum) > 1e-6*fifoSum {
		t.Fatalf("total completion time differs: FIFO %v vs WFQ %v", fifoSum, wfqSum)
	}
}
