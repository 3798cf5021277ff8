package sched

import (
	"testing"

	"ispn/internal/packet"
)

func TestFIFOOrder(t *testing.T) {
	f := NewFIFO()
	for i := uint64(0); i < 5; i++ {
		f.Enqueue(pkt(1, i, 1000), 0)
	}
	if f.Len() != 5 {
		t.Fatalf("Len = %d, want 5", f.Len())
	}
	for i := uint64(0); i < 5; i++ {
		if p := f.Dequeue(0); p.Seq != i {
			t.Fatalf("Dequeue seq %d, want %d", p.Seq, i)
		}
	}
	if f.Dequeue(0) != nil {
		t.Fatal("Dequeue of empty FIFO should be nil")
	}
}

func TestFIFOIsWorkConservingOnLink(t *testing.T) {
	// Back-to-back arrivals keep the link busy with no gaps.
	var arr []arrival
	for i := 0; i < 10; i++ {
		arr = append(arr, arrival{t: 0, p: pkt(1, uint64(i), 1000)})
	}
	out := runLink(NewFIFO(), 1e6, arr)
	if len(out) != 10 {
		t.Fatalf("delivered %d, want 10", len(out))
	}
	for i, d := range out {
		want := float64(i+1) * 0.001
		if diff := d.finish - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("packet %d finish = %v, want %v", i, d.finish, want)
		}
	}
}

func TestPriorityStrictOrdering(t *testing.T) {
	pr := NewPriority([]Scheduler{NewFIFO(), NewFIFO(), NewFIFO()})
	// Interleave: datagram, low predicted, high predicted.
	pr.Enqueue(pktClass(1, 0, 1000, packet.Datagram, 0), 0)
	pr.Enqueue(pktClass(2, 1, 1000, packet.Predicted, 1), 0)
	pr.Enqueue(pktClass(3, 2, 1000, packet.Predicted, 0), 0)
	if pr.Len() != 3 {
		t.Fatalf("Len = %d", pr.Len())
	}
	wantOrder := []uint64{2, 1, 0} // high, low, datagram
	for _, want := range wantOrder {
		if got := pr.Dequeue(0); got.Seq != want {
			t.Fatalf("Dequeue seq %d, want %d", got.Seq, want)
		}
	}
}

func TestPriorityHigherClassPreempts(t *testing.T) {
	// A continuously backlogged high class starves the low class (strict
	// priority), which is exactly the paper's jitter-shifting behavior.
	pr := NewPriority([]Scheduler{NewFIFO(), NewFIFO()})
	var arr []arrival
	for i := 0; i < 20; i++ {
		arr = append(arr, arrival{t: 0, p: pktClass(1, uint64(i), 1000, packet.Predicted, 0)})
	}
	arr = append(arr, arrival{t: 0, p: pktClass(2, 99, 1000, packet.Datagram, 0)})
	// The harness enqueues in slice order at t=0; datagram arrives last
	// but would be transmitted second under FIFO. Under priority it must
	// be transmitted dead last.
	out := runLink(pr, 1e6, arr)
	if out[len(out)-1].p.Seq != 99 {
		t.Fatal("datagram packet was not served last under strict priority")
	}
}

func TestPriorityDequeuesHigherLevelFirst(t *testing.T) {
	pr := NewPriority([]Scheduler{NewFIFO(), NewFIFO()})
	pr.Enqueue(pktClass(1, 7, 1000, packet.Datagram, 0), 0)
	pr.Enqueue(pktClass(2, 8, 1000, packet.Predicted, 0), 0)
	if got := pr.Dequeue(0); got.Seq != 8 {
		t.Fatal("the later, higher-priority packet should leave first")
	}
	if got := pr.Dequeue(0); got.Seq != 7 || pr.Len() != 0 {
		t.Fatal("the datagram packet should follow and leave the scheduler empty")
	}
}

func TestPriorityClampsOutOfRangeLevels(t *testing.T) {
	pr := NewPriority([]Scheduler{NewFIFO(), NewFIFO(), NewFIFO()})
	// Predicted packet with absurd priority header must land in the
	// lowest predicted class (level 1 here = K-1), not the datagram one.
	pr.Enqueue(pktClass(1, 0, 1000, packet.Predicted, 200), 0)
	if pr.levels[1].Len() != 1 {
		t.Fatal("overflow priority was not clamped to the lowest predicted class")
	}
	if pr.levels[2].Len() != 0 {
		t.Fatal("predicted packet leaked into the datagram class")
	}
}

func TestPriorityEmpty(t *testing.T) {
	pr := NewPriority([]Scheduler{NewFIFO()})
	if pr.Dequeue(0) != nil || pr.Len() != 0 {
		t.Fatal("empty priority scheduler misbehaves")
	}
}

func TestPriorityNoLevelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPriority with no levels did not panic")
		}
	}()
	NewPriority(nil)
}

func TestClassifyByHeaderSingleLevel(t *testing.T) {
	pr := NewPriority([]Scheduler{NewFIFO()})
	if got := pr.level(pktClass(1, 0, 1, packet.Predicted, 5)); got != 0 {
		t.Fatalf("level = %d, want 0", got)
	}
	if got := pr.level(pktClass(1, 0, 1, packet.Datagram, 0)); got != 0 {
		t.Fatalf("level = %d, want 0", got)
	}
}
