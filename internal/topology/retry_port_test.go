package topology

import (
	"math"
	"testing"

	"ispn/internal/packet"
	"ispn/internal/sched"
	"ispn/internal/sim"
)

// The port must wake itself up when its scheduler is non-work-conserving:
// a held packet would otherwise strand forever because nothing new arrives
// to trigger transmission.
func TestPortWakesUpForHeldPackets(t *testing.T) {
	eng := sim.New()
	n := NewNetwork(eng)
	n.AddNode("A")
	n.AddNode("B")
	n.AddLink("A", "B", sched.NewStopAndGo(0.050), 1e6, 0)
	n.InstallRoute(1, []string{"A", "B"})
	var deliveredAt float64 = -1
	n.Node("B").SetSink(1, func(p *packet.Packet) { deliveredAt = eng.Now() })

	// Mid-frame: held until the frame boundary at t=0.050.
	eng.Schedule(0.020, func() { n.Inject("A", &packet.Packet{FlowID: 1, Size: 1000}) })
	eng.Run()
	if deliveredAt < 0 {
		t.Fatal("held packet never delivered: port did not wake up")
	}
	want := 0.050 + 0.001 // release + transmission
	if math.Abs(deliveredAt-want) > 1e-9 {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

// A packet that became eligible at a frame boundary leaves at once; one that
// arrives mid-frame behind it, while the wire is busy, is held to the next
// boundary — so the retry must be re-armed from the end of a transmission,
// not only from an arrival.
func TestPortStopAndGoServesEligibleAndHoldsFresh(t *testing.T) {
	eng := sim.New()
	n := NewNetwork(eng)
	n.AddNode("A")
	n.AddNode("B")
	n.AddLink("A", "B", sched.NewStopAndGo(0.010), 1e6, 0)
	n.InstallRoute(1, []string{"A", "B"})
	type delivery struct {
		seq uint64
		at  float64
	}
	var got []delivery
	n.Node("B").SetSink(1, func(p *packet.Packet) { got = append(got, delivery{p.Seq, eng.Now()}) })

	// Frame 0 arrival: eligible at 0.010, on the wire until 0.011.
	eng.Schedule(0.005, func() { n.Inject("A", &packet.Packet{FlowID: 1, Seq: 1, Size: 1000}) })
	// Frame 1 arrival during that transmission: held until 0.020.
	eng.Schedule(0.0105, func() { n.Inject("A", &packet.Packet{FlowID: 1, Seq: 2, Size: 1000}) })
	eng.Run()
	want := []delivery{{1, 0.011}, {2, 0.021}}
	if len(got) != 2 || got[0].seq != 1 || got[1].seq != 2 ||
		math.Abs(got[0].at-want[0].at) > 1e-9 || math.Abs(got[1].at-want[1].at) > 1e-9 {
		t.Fatalf("deliveries %v, want %v", got, want)
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d stray events pending", eng.Pending())
	}
}

func TestPortRetryNotArmedForWorkConserving(t *testing.T) {
	// A plain FIFO port with an empty queue must not leave stray events.
	eng := sim.New()
	n := NewNetwork(eng)
	n.AddNode("A")
	n.AddNode("B")
	n.AddLink("A", "B", sched.NewFIFO(), 1e6, 0)
	n.InstallRoute(1, []string{"A", "B"})
	n.Node("B").SetSink(1, func(p *packet.Packet) {})
	n.Inject("A", &packet.Packet{FlowID: 1, Size: 1000})
	eng.Run()
	if eng.Pending() != 0 {
		t.Fatalf("%d stray events pending", eng.Pending())
	}
}
