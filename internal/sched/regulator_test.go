package sched

import (
	"math"
	"testing"
)

func TestRegulatorPassesOnTimePackets(t *testing.T) {
	r := NewRegulator(NewFIFO())
	p := pkt(1, 0, 1000)
	p.ArrivedAt = 5.0
	p.JitterOffset = 0 // exactly on schedule
	r.Enqueue(p, 5.0)
	if r.held.Len() != 0 {
		t.Fatal("on-time packet was held")
	}
	if got := r.Dequeue(5.0); got != p {
		t.Fatal("packet not passed through")
	}
}

func TestRegulatorPassesLatePackets(t *testing.T) {
	r := NewRegulator(NewFIFO())
	p := pkt(1, 0, 1000)
	p.ArrivedAt = 5.0
	p.JitterOffset = 0.020 // 20 ms late (unlucky upstream)
	r.Enqueue(p, 5.0)
	if r.held.Len() != 0 {
		t.Fatal("late packet was held")
	}
}

func TestRegulatorHoldsEarlyPackets(t *testing.T) {
	r := NewRegulator(NewFIFO())
	p := pkt(1, 0, 1000)
	p.ArrivedAt = 5.0
	p.JitterOffset = -0.030 // 30 ms early: expected at 5.030
	r.Enqueue(p, 5.0)
	if r.held.Len() != 1 || r.Len() != 1 {
		t.Fatalf("Held/Len = %d/%d, want 1/1", r.held.Len(), r.Len())
	}
	if got := r.Dequeue(5.010); got != nil {
		t.Fatal("held packet released too early")
	}
	if got := r.NextEligible(5.010); math.Abs(got-5.030) > 1e-12 {
		t.Fatalf("NextEligible = %v, want 5.030", got)
	}
	got := r.Dequeue(5.030)
	if got != p {
		t.Fatal("packet not released at its expected arrival")
	}
	// Offset cleared and arrival rewritten: downstream sees an on-time
	// packet.
	if got.JitterOffset != 0 || got.ArrivedAt != 5.030 {
		t.Fatalf("release did not normalize packet: offset=%v arrived=%v",
			got.JitterOffset, got.ArrivedAt)
	}
}

func TestRegulatorReleasesInExpectedOrder(t *testing.T) {
	r := NewRegulator(NewFIFO())
	a := pkt(1, 1, 1000)
	a.ArrivedAt, a.JitterOffset = 1.0, -0.050 // expected 1.050
	b := pkt(2, 2, 1000)
	b.ArrivedAt, b.JitterOffset = 1.0, -0.020 // expected 1.020
	r.Enqueue(a, 1.0)
	r.Enqueue(b, 1.0)
	if got := r.Dequeue(1.060); got != b {
		t.Fatal("earlier-expected packet should release first")
	}
	if got := r.Dequeue(1.060); got != a {
		t.Fatal("second packet lost")
	}
}

func TestRegulatorNextEligibleStates(t *testing.T) {
	r := NewRegulator(NewFIFO())
	if !math.IsInf(r.NextEligible(0), 1) {
		t.Fatal("empty regulator NextEligible should be +Inf")
	}
	p := pkt(1, 0, 1000)
	p.ArrivedAt = 0
	r.Enqueue(p, 0) // on time -> inner
	if got := r.NextEligible(0); got != 0 {
		t.Fatalf("NextEligible with released packet = %v, want now", got)
	}
}

func TestRegulatorPeekIgnoresHeld(t *testing.T) {
	r := NewRegulator(NewFIFO())
	p := pkt(1, 0, 1000)
	p.ArrivedAt, p.JitterOffset = 1.0, -1.0
	r.Enqueue(p, 1.0)
	if r.Peek() != nil {
		t.Fatal("Peek should not see held packets")
	}
}

func TestRegulatorRemovesJitterOnLink(t *testing.T) {
	// Packets arrive with alternating luck (offset ±d) but identical
	// expected arrivals spacing; after regulation the inter-departure
	// spacing is restored to the expected cadence.
	r := NewRegulator(NewFIFO())
	var arr []arrival
	for i := 0; i < 20; i++ {
		p := pkt(1, uint64(i), 1000)
		expected := float64(i) * 0.010
		// Half the packets arrive 4 ms early, half on time.
		early := 0.0
		if i%2 == 0 {
			early = 0.004
		}
		p.JitterOffset = -early
		arr = append(arr, arrival{t: expected - early, p: p})
	}
	// Sort by arrival time.
	for i := 1; i < len(arr); i++ {
		for j := i; j > 0 && arr[j].t < arr[j-1].t; j-- {
			arr[j], arr[j-1] = arr[j-1], arr[j]
		}
	}
	out := runLinkNWC(r, 1e6, arr)
	if len(out) != 20 {
		t.Fatalf("delivered %d, want 20", len(out))
	}
	for i := 1; i < len(out); i++ {
		gap := out[i].start - out[i-1].start
		if math.Abs(gap-0.010) > 1.1e-3 { // within a packet time
			t.Fatalf("departure gap %d = %v, want ~0.010 (jitter removed)", i, gap)
		}
	}
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
