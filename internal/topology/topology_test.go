package topology

import (
	"math"
	"testing"

	"ispn/internal/packet"
	"ispn/internal/sched"
	"ispn/internal/sim"
)

// buildChain makes S1 -> S2 -> ... -> Sk with FIFO ports at 1 Mbit/s.
func buildChain(eng *sim.Engine, k int, prop float64) *Network {
	n := NewNetwork(eng)
	for i := 1; i <= k; i++ {
		n.AddNode(nodeName(i))
	}
	for i := 1; i < k; i++ {
		n.AddLink(nodeName(i), nodeName(i+1), fifoPipe(1e6), 1e6, prop)
	}
	return n
}

func nodeName(i int) string { return "S" + string(rune('0'+i)) }

// newPipe builds the pipeline prof describes for a link of the given rate.
func newPipe(prof sched.Profile, rate float64) *sched.Pipeline {
	pl, err := sched.NewPipeline(prof, rate)
	if err != nil {
		panic(err)
	}
	return pl
}

// fifoPipe is a plain FIFO pipeline for a link of the given rate.
func fifoPipe(rate float64) *sched.Pipeline {
	return newPipe(sched.Profile{Kind: sched.KindFIFO}, rate)
}

// stopAndGoPipe is a Stop-and-Go pipeline of the given frame length.
func stopAndGoPipe(frame, rate float64) *sched.Pipeline {
	return newPipe(sched.Profile{Kind: sched.KindStopAndGo, ClassTargets: []float64{frame}}, rate)
}

func mk(flow uint32, seq uint64) *packet.Packet {
	return &packet.Packet{FlowID: flow, Seq: seq, Size: 1000, CreatedAt: 0}
}

// routeTo installs flow id along path with sink at its last switch and
// returns the Route the flow's packets carry.
func routeTo(n *Network, id uint32, path []string, sink Sink) *Route {
	r := n.InstallRoute(id, path)
	r.SetReceiver(n.Node(path[len(path)-1]), sink)
	return r
}

// send injects p at the named switch carrying r, as a flow's source does.
func send(n *Network, at string, r *Route, p *packet.Packet) {
	p.Route = r
	n.Node(at).Inject(p)
}

func TestSingleHopDelivery(t *testing.T) {
	eng := sim.New()
	n := buildChain(eng, 2, 0)
	var got []*packet.Packet
	var at []float64
	r := routeTo(n, 1, []string{"S1", "S2"}, func(p *packet.Packet) {
		got = append(got, p)
		at = append(at, eng.Now())
	})
	send(n, "S1", r, mk(1, 0))
	eng.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d, want 1", len(got))
	}
	// 1000 bits on 1 Mbit/s = 1 ms.
	if math.Abs(at[0]-0.001) > 1e-12 {
		t.Fatalf("delivery at %v, want 0.001", at[0])
	}
	if got[0].Hops != 1 {
		t.Fatalf("Hops = %d, want 1", got[0].Hops)
	}
}

func TestMultiHopFixedDelay(t *testing.T) {
	eng := sim.New()
	n := buildChain(eng, 5, 0.002)
	path := []string{"S1", "S2", "S3", "S4", "S5"}
	var at float64
	r := routeTo(n, 1, path, func(p *packet.Packet) { at = eng.Now() })
	send(n, "S1", r, mk(1, 0))
	eng.Run()
	want := FixedDelayAlong(n.PathPorts(path), 1000) // 4*(1ms + 2ms) = 12ms
	if math.Abs(want-0.012) > 1e-12 {
		t.Fatalf("FixedDelayAlong = %v, want 0.012", want)
	}
	if math.Abs(at-want) > 1e-12 {
		t.Fatalf("uncongested delivery at %v, want %v (fixed delay only)", at, want)
	}
}

func TestQueueingDelayUnderContention(t *testing.T) {
	eng := sim.New()
	n := buildChain(eng, 2, 0)
	var deliveries []float64
	r := routeTo(n, 1, []string{"S1", "S2"}, func(p *packet.Packet) { deliveries = append(deliveries, eng.Now()) })
	// 5 packets at t=0: each takes 1ms back-to-back.
	for i := 0; i < 5; i++ {
		send(n, "S1", r, mk(1, uint64(i)))
	}
	eng.Run()
	for i, at := range deliveries {
		want := float64(i+1) * 0.001
		if math.Abs(at-want) > 1e-12 {
			t.Fatalf("delivery %d at %v, want %v", i, at, want)
		}
	}
}

func TestBufferOverflowDrops(t *testing.T) {
	eng := sim.New()
	n := buildChain(eng, 2, 0)
	port := n.Node("S1").Port("S2")
	port.SetBufferLimit(10)
	count := 0
	r := routeTo(n, 1, []string{"S1", "S2"}, func(p *packet.Packet) { count++ })
	// 1 in flight + 10 buffered = 11 accepted.
	for i := 0; i < 50; i++ {
		send(n, "S1", r, mk(1, uint64(i)))
	}
	eng.Run()
	if count != 11 {
		t.Fatalf("delivered %d, want 11 (1 transmitting + 10 buffered)", count)
	}
	c := port.Counter()
	if c.Dropped != 39 || c.Total != 50 {
		t.Fatalf("counter = %+v, want 39/50 dropped", c)
	}
}

func TestRouteChangeTerminalNode(t *testing.T) {
	eng := sim.New()
	n := buildChain(eng, 3, 0)
	r := n.InstallRoute(1, []string{"S1", "S2", "S3"})
	// Re-route the flow to terminate at S2.
	n.InstallRouteAlong(r, 1, n.Node("S1"), n.PathPorts([]string{"S1", "S2"}))
	got := 0
	r.SetReceiver(n.Node("S2"), Sink(func(p *packet.Packet) { got++ }))
	send(n, "S1", r, mk(1, 0))
	eng.Run()
	if got != 1 {
		t.Fatalf("delivered %d at S2, want 1", got)
	}
}

// TestInstallRouteByID drives the flow-id convenience bench's port probe
// (bench/probes.go) uses: a sink named by flow id, packets injected without
// a Route, and a second InstallRoute for the id replacing the first.
func TestInstallRouteByID(t *testing.T) {
	eng := sim.New()
	n := buildChain(eng, 3, 0)
	n.InstallRoute(1, []string{"S1", "S2", "S3"})
	got := map[string]int{}
	n.Node("S3").SetSink(1, func(p *packet.Packet) { got["S3"]++ })
	n.Node("S1").Inject(mk(1, 0))
	eng.Run()
	n.InstallRoute(1, []string{"S1", "S2"})
	n.Node("S2").SetSink(1, func(p *packet.Packet) { got["S2"]++ })
	n.Node("S1").Inject(mk(1, 1))
	eng.Run()
	if got["S3"] != 1 || got["S2"] != 1 {
		t.Fatalf("deliveries %v, want one at S3, then one at S2", got)
	}
}

func TestStrandedPacketPanics(t *testing.T) {
	eng := sim.New()
	n := buildChain(eng, 2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("stranded packet did not panic")
		}
	}()
	n.Node("S1").Inject(mk(9, 0)) // no route, no sink
}

func TestUtilizationMeter(t *testing.T) {
	eng := sim.New()
	n := buildChain(eng, 2, 0)
	r := routeTo(n, 1, []string{"S1", "S2"}, func(p *packet.Packet) {})
	// Inject 500 packets spaced exactly at service rate: 100% for 0.5s.
	for i := 0; i < 500; i++ {
		i := i
		eng.Schedule(float64(i)*0.001, func() { send(n, "S1", r, mk(1, uint64(i))) })
	}
	eng.Run()
	port := n.Node("S1").Port("S2")
	if u := port.TotalUtilization(0.5); math.Abs(u-1.0) > 0.01 {
		t.Fatalf("TotalUtilization = %v, want ~1", u)
	}
}

func TestDiscardOffsetDropsLatePackets(t *testing.T) {
	eng := sim.New()
	n := buildChain(eng, 2, 0)
	port := n.Node("S1").Port("S2")
	port.DiscardOffset = 0.010
	got := 0
	r := routeTo(n, 1, []string{"S1", "S2"}, func(p *packet.Packet) { got++ })
	late := mk(1, 0)
	late.JitterOffset = 0.050 // very late per the FIFO+ header field
	ok := mk(1, 1)
	send(n, "S1", r, late)
	send(n, "S1", r, ok)
	eng.Run()
	if got != 1 {
		t.Fatalf("delivered %d, want 1 (late packet discarded)", got)
	}
	if port.Discarded() != 1 {
		t.Fatalf("Discarded = %d, want 1", port.Discarded())
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	eng := sim.New()
	n := NewNetwork(eng)
	n.AddNode("A")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate node did not panic")
		}
	}()
	n.AddNode("A")
}

func TestDuplicateLinkPanics(t *testing.T) {
	eng := sim.New()
	n := NewNetwork(eng)
	n.AddNode("A")
	n.AddNode("B")
	n.AddLink("A", "B", fifoPipe(1e6), 1e6, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate link did not panic")
		}
	}()
	n.AddLink("A", "B", fifoPipe(1e6), 1e6, 0)
}

func TestRouteValidation(t *testing.T) {
	eng := sim.New()
	n := buildChain(eng, 3, 0)
	for _, path := range [][]string{
		{},
		{"S1", "S9"},
		{"S1", "S3"}, // no direct link
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("route %v did not panic", path)
				}
			}()
			n.InstallRoute(1, path)
		}()
	}
}

func TestPathPortsAndNodes(t *testing.T) {
	eng := sim.New()
	n := buildChain(eng, 3, 0)
	ports := n.PathPorts([]string{"S1", "S2", "S3"})
	if len(ports) != 2 || ports[0].Name() != "S1->S2" || ports[1].Name() != "S2->S3" {
		t.Fatalf("PathPorts = %v", ports)
	}
	if len(n.Nodes()) != 3 {
		t.Fatalf("Nodes = %d, want 3", len(n.Nodes()))
	}
	if len(n.Node("S1").Ports()) != 1 {
		t.Fatal("S1 should have one port")
	}
	if n.Node("nope") != nil {
		t.Fatal("unknown node should be nil")
	}
}

func TestBandwidthValidation(t *testing.T) {
	eng := sim.New()
	n := NewNetwork(eng)
	n.AddNode("A")
	n.AddNode("B")
	defer func() {
		if recover() == nil {
			t.Fatal("zero bandwidth did not panic")
		}
	}()
	n.AddLink("A", "B", fifoPipe(1e6), 0, 0)
}
