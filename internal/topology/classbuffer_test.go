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
	u := sched.NewUnified(sched.Profile{ClassTargets: []float64{0.032}}.Normalize(), 1e6)
	u.AddGuaranteed(1, 1e5)
	port := n.AddLink("A", "B", u, 1e6, 0)
	port.SetBufferLimit(5)
	n.InstallRoute(1, []string{"A", "B"})
	n.InstallRoute(2, []string{"A", "B"})
	var gotG, gotD int
	n.Node("B").SetSink(1, func(p *packet.Packet) { gotG++ })
	n.Node("B").SetSink(2, func(p *packet.Packet) { gotD++ })
	// Fill the buffer with datagram packets.
	for i := 0; i < 20; i++ {
		n.Inject("A", &packet.Packet{FlowID: 2, Seq: uint64(i), Size: 1000, Class: packet.Datagram})
	}
	// A guaranteed packet still enters.
	n.Inject("A", &packet.Packet{FlowID: 1, Seq: 100, Size: 1000, Class: packet.Guaranteed})
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
	u := sched.NewUnified(sched.Profile{ClassTargets: []float64{0.032}}.Normalize(), 1e6)
	u.AddGuaranteed(1, 1e5)
	port := n.AddLink("A", "B", u, 1e6, 0)
	port.SetBufferLimit(5)
	n.InstallRoute(1, []string{"A", "B"})
	got := 0
	n.Node("B").SetSink(1, func(p *packet.Packet) { got++ })
	for i := 0; i < 50; i++ {
		n.Inject("A", &packet.Packet{FlowID: 1, Seq: uint64(i), Size: 1000, Class: packet.Guaranteed})
	}
	eng.Run()
	if got != 6 { // 1 transmitting + 5 buffered
		t.Fatalf("delivered %d, want 6 (guaranteed class must respect its own limit)", got)
	}
	if port.DropsByClass(packet.Guaranteed) != 44 {
		t.Fatalf("guaranteed drops = %d, want 44", port.DropsByClass(packet.Guaranteed))
	}
}
