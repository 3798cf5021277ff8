package sched

import (
	"testing"
)

func TestDRRRoundRobinUniformPackets(t *testing.T) {
	// With quantum == packet size, DRR is plain packet round robin.
	d := NewDRR(1000)
	d.AddFlow(1)
	d.AddFlow(2)
	for i := 0; i < 6; i++ {
		d.Enqueue(pkt(1, uint64(i), 1000), 0)
	}
	for i := 0; i < 6; i++ {
		d.Enqueue(pkt(2, uint64(100+i), 1000), 0)
	}
	var order []uint32
	for d.Len() > 0 {
		order = append(order, d.Dequeue(0).FlowID)
	}
	for i := 0; i+1 < 12; i += 2 {
		if order[i] == order[i+1] {
			t.Fatalf("not alternating at %d: %v", i, order)
		}
	}
}

func TestDRRFairnessWithMixedSizes(t *testing.T) {
	// Flow 1 sends 500-bit packets, flow 2 sends 1500-bit packets; over a
	// full backlog both should receive roughly equal bits.
	d := NewDRR(1000)
	d.AddFlow(1)
	d.AddFlow(2)
	for i := 0; i < 300; i++ {
		d.Enqueue(pkt(1, uint64(i), 500), 0)
	}
	for i := 0; i < 100; i++ {
		d.Enqueue(pkt(2, uint64(1000+i), 1500), 0)
	}
	bits := map[uint32]int{}
	// Serve half the total bits.
	served := 0
	for served < 150000 {
		p := d.Dequeue(0)
		bits[p.FlowID] += p.Size
		served += p.Size
	}
	r := float64(bits[1]) / float64(bits[2])
	if r < 0.8 || r > 1.25 {
		t.Fatalf("bit ratio = %v, want ~1 (DRR fairness)", r)
	}
}

func TestDRRAutoAdd(t *testing.T) {
	d := NewDRR(1000)
	d.Enqueue(pkt(9, 0, 1000), 0)
	if d.Len() != 1 {
		t.Fatal("autoAdd failed")
	}
	if got := d.Dequeue(0); got.FlowID != 9 {
		t.Fatal("wrong packet")
	}
}

func TestDRRDuplicateFlowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddFlow did not panic")
		}
	}()
	d := NewDRR(1000)
	d.AddFlow(1)
	d.AddFlow(1)
}

func TestDRRLargePacketNeedsMultipleRounds(t *testing.T) {
	// Quantum 100, packet 1000: the flow must wait ~10 rounds but still
	// be served eventually (no livelock).
	d := NewDRR(100)
	d.AddFlow(1)
	d.AddFlow(2)
	d.Enqueue(pkt(1, 0, 1000), 0)
	d.Enqueue(pkt(2, 1, 1000), 0)
	a := d.Dequeue(0)
	b := d.Dequeue(0)
	if a == nil || b == nil || a.FlowID == b.FlowID {
		t.Fatalf("both flows must be served: %v %v", a, b)
	}
	if d.Dequeue(0) != nil {
		t.Fatal("phantom packet")
	}
}

func TestDRREmpty(t *testing.T) {
	d := NewDRR(1000)
	if d.Dequeue(0) != nil || d.Len() != 0 {
		t.Fatal("empty DRR misbehaves")
	}
}

func TestDRRBadQuantumPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad quantum")
		}
	}()
	NewDRR(0)
}
