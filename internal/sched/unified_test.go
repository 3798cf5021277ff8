package sched

import (
	"math"
	"testing"

	"ispn/internal/packet"
)

// newTestUnified builds the paper's default port (two predicted classes,
// FIFO+ sharing) on a 1 Mb/s link.
func newTestUnified() *Unified {
	return NewUnified(Profile{}.Normalize(), 1e6)
}

func TestUnifiedGuaranteedIsolatedFromPredictedFlood(t *testing.T) {
	// The Section 7 property: a conforming guaranteed flow keeps its
	// Parekh-Gallager bound even when predicted traffic floods the link.
	u := newTestUnified()
	const r = 2.5e5
	u.AddGuaranteed(1, r)
	var arr []arrival
	for i := 0; i < 100; i++ {
		arr = append(arr, arrival{t: float64(i) * 1000 / r,
			p: pktClass(1, uint64(i), 1000, packet.Guaranteed, 0)})
	}
	for i := 0; i < 600; i++ {
		arr = append(arr, arrival{t: 0.00005,
			p: pktClass(50, uint64(1000+i), 1000, packet.Predicted, 0)})
	}
	for i := 1; i < len(arr); i++ {
		for j := i; j > 0 && arr[j].t < arr[j-1].t; j-- {
			arr[j], arr[j-1] = arr[j-1], arr[j]
		}
	}
	out := runLink(u, 1e6, arr)
	bound := 1000/r + 2*1000/1e6
	for _, d := range out {
		if d.p.Class != packet.Guaranteed {
			continue
		}
		delay := d.finish - d.p.ArrivedAt
		if delay > bound+1e-9 {
			t.Fatalf("guaranteed packet %d delay %v > bound %v under predicted flood",
				d.p.Seq, delay, bound)
		}
	}
}

func TestUnifiedPriorityBetweenPredictedClasses(t *testing.T) {
	u := newTestUnified()
	// Low-priority packet arrives first, high second; high must leave
	// first once the scheduler picks.
	u.Enqueue(pktClass(10, 0, 1000, packet.Predicted, 1), 0)
	u.Enqueue(pktClass(11, 1, 1000, packet.Predicted, 0), 0)
	if got := u.Dequeue(0); got.Seq != 1 {
		t.Fatalf("high-priority predicted packet not served first (got seq %d)", got.Seq)
	}
}

func TestUnifiedDatagramLast(t *testing.T) {
	u := newTestUnified()
	u.Enqueue(pktClass(20, 0, 1000, packet.Datagram, 0), 0)
	u.Enqueue(pktClass(21, 1, 1000, packet.Predicted, 1), 0)
	u.Enqueue(pktClass(22, 2, 1000, packet.Predicted, 0), 0)
	want := []uint64{2, 1, 0}
	for _, w := range want {
		if got := u.Dequeue(0); got.Seq != w {
			t.Fatalf("got seq %d, want %d", got.Seq, w)
		}
	}
}

func TestUnifiedReservedAccounting(t *testing.T) {
	u := newTestUnified()
	u.AddGuaranteed(1, 2e5)
	u.AddGuaranteed(2, 3e5)
	if u.Reserved() != 5e5 {
		t.Fatalf("Reserved = %v, want 5e5", u.Reserved())
	}
	if got := u.Rate(Flow0ID); math.Abs(got-5e5) > 1e-9 {
		t.Fatalf("flow 0 rate = %v, want 5e5", got)
	}
	u.RemoveGuaranteed(1)
	if u.Reserved() != 3e5 {
		t.Fatalf("Reserved after remove = %v, want 3e5", u.Reserved())
	}
	if got := u.Rate(Flow0ID); math.Abs(got-7e5) > 1e-9 {
		t.Fatalf("flow 0 rate after remove = %v, want 7e5", got)
	}
	u.RemoveGuaranteed(99) // unknown: no-op
}

func TestUnifiedOversubscriptionPanics(t *testing.T) {
	u := newTestUnified()
	u.AddGuaranteed(1, 6e5)
	defer func() {
		if recover() == nil {
			t.Fatal("oversubscription did not panic")
		}
	}()
	u.AddGuaranteed(2, 5e5)
}

func TestUnifiedGuaranteedPacketWithoutReservationDemotes(t *testing.T) {
	// The tail of a departed guaranteed flow (reservation already released,
	// packets still in flight from upstream hops) rides flow 0 instead of
	// panicking.
	u := newTestUnified()
	u.Enqueue(pktClass(5, 0, 1000, packet.Guaranteed, 0), 0)
	if u.Len() != 1 {
		t.Fatal("unreserved guaranteed packet was not accepted into flow 0")
	}
	p := u.Dequeue(0)
	if p == nil || p.FlowID != 5 {
		t.Fatalf("demoted packet not served: %v", p)
	}
}

func TestUnifiedSetLinkAndGuaranteedRate(t *testing.T) {
	u := newTestUnified()
	u.AddGuaranteed(1, 2e5)
	u.SetGuaranteedRate(1, 4e5)
	if u.Reserved() != 4e5 {
		t.Fatalf("Reserved = %v after renegotiation, want 4e5", u.Reserved())
	}
	if got := u.Rate(Flow0ID); got != 6e5 {
		t.Fatalf("flow 0 rate = %v, want 6e5", got)
	}
	u.SetLinkRate(8e5, 0)
	if got := u.Rate(Flow0ID); got != 4e5 {
		t.Fatalf("flow 0 rate after link change = %v, want 4e5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("link rate below reservations did not panic")
		}
	}()
	u.SetLinkRate(3e5, 0)
}

func TestUnifiedPredictedClassSchedulers(t *testing.T) {
	u := newTestUnified()
	if _, ok := u.levels[0].(*FIFOPlus); !ok {
		t.Fatal("predicted class 0 is not FIFO+ by default")
	}
	uf := NewUnified(Profile{Sharing: SharingFIFO}.Normalize(), 1e6)
	if _, ok := uf.levels[0].(*FIFO); !ok {
		t.Fatal("fifo sharing did not install FIFO")
	}
	ur := NewUnified(Profile{Sharing: SharingRoundRobin}.Normalize(), 1e6)
	if _, ok := ur.levels[0].(*DRR); !ok {
		t.Fatal("rr sharing did not install DRR")
	}
}

func TestUnifiedClassDelayEstimate(t *testing.T) {
	u := newTestUnified()
	p := pktClass(30, 0, 1000, packet.Predicted, 0)
	p.ArrivedAt = 0
	u.Enqueue(p, 0)
	u.Dequeue(0.010)
	if got := u.ClassDelayEstimate(0, 0.010); math.Abs(got-0.010) > 1e-9 {
		t.Fatalf("ClassDelayEstimate = %v, want 0.010", got)
	}
	// Non-measuring ablation variant returns 0.
	uf := NewUnified(Profile{Sharing: SharingFIFO, ClassTargets: []float64{0.032}}.Normalize(), 1e6)
	if uf.ClassDelayEstimate(0, 1) != 0 {
		t.Fatal("fifo sharing ClassDelayEstimate should be 0")
	}
}

func TestUnifiedJitterShifting(t *testing.T) {
	// Priority shifts jitter downward: with a bursty high class and a
	// smooth low class, the low class's delay spread should exceed the
	// high class's.
	u := newTestUnified()
	var arr []arrival
	seq := uint64(0)
	// High class: bursts of 5 packets every 10 ms.
	for b := 0; b < 40; b++ {
		for k := 0; k < 5; k++ {
			arr = append(arr, arrival{t: float64(b) * 0.010,
				p: pktClass(1, seq, 1000, packet.Predicted, 0)})
			seq++
		}
	}
	// Low class: one packet every 2.5 ms.
	for i := 0; i < 160; i++ {
		arr = append(arr, arrival{t: float64(i) * 0.0025,
			p: pktClass(2, seq, 1000, packet.Predicted, 1)})
		seq++
	}
	for i := 1; i < len(arr); i++ {
		for j := i; j > 0 && arr[j].t < arr[j-1].t; j-- {
			arr[j], arr[j-1] = arr[j-1], arr[j]
		}
	}
	out := runLink(u, 1e6, arr)
	maxDelay := map[uint8]float64{}
	for _, d := range out {
		delay := d.finish - d.p.ArrivedAt
		if delay > maxDelay[d.p.Priority] {
			maxDelay[d.p.Priority] = delay
		}
	}
	if maxDelay[1] <= maxDelay[0] {
		t.Fatalf("low class max delay %v should exceed high class %v (jitter shifting)",
			maxDelay[1], maxDelay[0])
	}
}

func TestUnifiedConfigValidation(t *testing.T) {
	for _, c := range []struct {
		prof     Profile
		linkRate float64
	}{
		{Profile{}.Normalize(), 0},
		{Profile{}, 1e6}, // not normalized: no class targets, so no predicted class
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("profile %+v at link rate %v did not panic", c.prof, c.linkRate)
				}
			}()
			NewUnified(c.prof, c.linkRate)
		}()
	}
}
