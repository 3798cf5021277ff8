package topology

import (
	"testing"

	"ispn/internal/packet"
	"ispn/internal/sched"
	"ispn/internal/sim"
)

// Class-aware buffer admission: guaranteed packets must get in even when
// lower classes fill the buffer.
func TestGuaranteedPacketAdmittedThroughFullBuffer(t *testing.T) {
	eng := sim.New()
	n := NewNetwork(eng)
	n.AddNode("A")
	n.AddNode("B")
	u, err := sched.NewPipeline(sched.Profile{ClassTargets: []float64{0.032}}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	u.AddGuaranteed(1, 1e5)
	port := n.AddLink("A", "B", u, 1e6, 0)
	port.SetBufferLimit(5)
	var gotG, gotD int
	g := routeTo(n, 1, []string{"A", "B"}, func(p *packet.Packet) { gotG++ })
	d := routeTo(n, 2, []string{"A", "B"}, func(p *packet.Packet) { gotD++ })
	// Fill the buffer with datagram packets.
	for i := 0; i < 20; i++ {
		send(n, "A", d, &packet.Packet{FlowID: 2, Seq: uint64(i), Size: 1000, Class: packet.Datagram})
	}
	// A guaranteed packet still enters.
	send(n, "A", g, &packet.Packet{FlowID: 1, Seq: 100, Size: 1000, Class: packet.Guaranteed})
	eng.Run()
	if gotG != 1 {
		t.Fatalf("guaranteed packet dropped by a datagram-full buffer (delivered %d)", gotG)
	}
	if gotD != 6 { // 1 in flight + 5 buffered
		t.Fatalf("datagram delivered %d, want 6", gotD)
	}
	if port.DropsByClass(packet.Guaranteed) != 0 {
		t.Fatal("guaranteed drops recorded")
	}
	if port.DropsByClass(packet.Datagram) != 14 {
		t.Fatalf("datagram drops = %d, want 14", port.DropsByClass(packet.Datagram))
	}
}

// The guaranteed class itself is still bounded: it cannot occupy more than
// the buffer limit.
func TestGuaranteedClassBounded(t *testing.T) {
	eng := sim.New()
	n := NewNetwork(eng)
	n.AddNode("A")
	n.AddNode("B")
	u, err := sched.NewPipeline(sched.Profile{ClassTargets: []float64{0.032}}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	u.AddGuaranteed(1, 1e5)
	port := n.AddLink("A", "B", u, 1e6, 0)
	port.SetBufferLimit(5)
	got := 0
	r := routeTo(n, 1, []string{"A", "B"}, func(p *packet.Packet) { got++ })
	for i := 0; i < 50; i++ {
		send(n, "A", r, &packet.Packet{FlowID: 1, Seq: uint64(i), Size: 1000, Class: packet.Guaranteed})
	}
	eng.Run()
	if got != 6 { // 1 transmitting + 5 buffered
		t.Fatalf("delivered %d, want 6 (guaranteed class must respect its own limit)", got)
	}
	if port.DropsByClass(packet.Guaranteed) != 44 {
		t.Fatalf("guaranteed drops = %d, want 44", port.DropsByClass(packet.Guaranteed))
	}
}
