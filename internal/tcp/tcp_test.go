package tcp

import (
	"math"
	"testing"

	"ispn/internal/packet"
	"ispn/internal/sched"
	"ispn/internal/sim"
	"ispn/internal/topology"
)

// fifoPipe is a plain FIFO pipeline for a link of the given rate.
func fifoPipe(rate float64) *sched.Pipeline {
	pl, err := sched.NewPipeline(sched.Profile{Kind: sched.KindFIFO}, rate)
	if err != nil {
		panic(err)
	}
	return pl
}

// buildDuplex builds A -> B -> C with duplex 1 Mbit/s FIFO links.
func buildDuplex(eng *sim.Engine, names []string, bw float64) *topology.Network {
	n := topology.NewNetwork(eng)
	for _, name := range names {
		n.AddNode(name)
	}
	for i := 0; i < len(names)-1; i++ {
		n.AddLink(names[i], names[i+1], fifoPipe(bw), bw, 0)
		n.AddLink(names[i+1], names[i], fifoPipe(bw), bw, 0)
	}
	return n
}

func newConn(n *topology.Network, names []string) *Connection {
	rev := make([]string, len(names))
	for i, s := range names {
		rev[len(names)-1-i] = s
	}
	return NewConnection(n, Config{
		DataFlowID:  1000,
		AckFlowID:   1001,
		Path:        names,
		ReversePath: rev,
	})
}

func TestTCPFillsIdleLink(t *testing.T) {
	eng := sim.New()
	names := []string{"A", "B", "C"}
	n := buildDuplex(eng, names, 1e6)
	c := newConn(n, names)
	c.Start()
	eng.RunUntil(30)
	// An uncontended 1 Mbit/s path should carry close to line rate.
	got := c.ThroughputBits(30)
	if got < 0.90e6 {
		t.Fatalf("throughput = %v bits/s, want >= 0.90 Mbit/s", got)
	}
	if c.Stats().Retransmits > c.Stats().SegmentsSent/100 {
		t.Fatalf("unexpected retransmissions on a clean path: %+v", c.Stats())
	}
}

func TestTCPDeliveredInOrderCount(t *testing.T) {
	eng := sim.New()
	names := []string{"A", "B"}
	n := buildDuplex(eng, names, 1e6)
	c := newConn(n, names)
	c.Start()
	eng.RunUntil(10)
	st := c.Stats()
	if st.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if st.Delivered > st.SegmentsSent {
		t.Fatalf("delivered %d > sent %d", st.Delivered, st.SegmentsSent)
	}
}

func TestTCPRecoversFromLoss(t *testing.T) {
	// Tiny buffer forces drops; the connection must keep making progress
	// and use fast retransmit.
	eng := sim.New()
	names := []string{"A", "B"}
	n := buildDuplex(eng, names, 1e6)
	n.Node("A").Port("B").SetBufferLimit(5)
	c := newConn(n, names)
	c.Start()
	eng.RunUntil(60)
	st := c.Stats()
	if st.Retransmits == 0 {
		t.Fatal("expected losses with a 5-packet buffer")
	}
	if c.ThroughputBits(60) < 0.5e6 {
		t.Fatalf("throughput with losses = %v, want >= 0.5 Mbit/s", c.ThroughputBits(60))
	}
	if st.FastRetransmits == 0 {
		t.Fatal("expected fast retransmits, not only timeouts")
	}
}

func TestTCPSharesLinkFairly(t *testing.T) {
	// Two connections over one bottleneck should each get a substantial
	// share (Reno fairness is rough; demand same order of magnitude).
	eng := sim.New()
	n := topology.NewNetwork(eng)
	for _, name := range []string{"A", "B"} {
		n.AddNode(name)
	}
	n.AddLink("A", "B", fifoPipe(1e6), 1e6, 0)
	n.AddLink("B", "A", fifoPipe(1e6), 1e6, 0)
	c1 := NewConnection(n, Config{DataFlowID: 1, AckFlowID: 2,
		Path: []string{"A", "B"}, ReversePath: []string{"B", "A"}})
	c2 := NewConnection(n, Config{DataFlowID: 3, AckFlowID: 4,
		Path: []string{"A", "B"}, ReversePath: []string{"B", "A"}})
	c1.Start()
	c2.Start()
	eng.RunUntil(60)
	t1, t2 := c1.ThroughputBits(60), c2.ThroughputBits(60)
	if t1+t2 < 0.85e6 {
		t.Fatalf("aggregate = %v, want near line rate", t1+t2)
	}
	lo, hi := math.Min(t1, t2), math.Max(t1, t2)
	if lo < hi/8 {
		t.Fatalf("extremely unfair split: %v vs %v", t1, t2)
	}
}

func TestTCPRespectsMaxCwnd(t *testing.T) {
	// 100 Mbit/s with 10 ms each way: the bandwidth-delay product is
	// about 2000 segments, far above the window cap, so only the cap
	// bounds what is in flight.
	eng := sim.New()
	n := topology.NewNetwork(eng)
	n.AddNode("A")
	n.AddNode("B")
	n.AddLink("A", "B", fifoPipe(1e8), 1e8, 0.010)
	n.AddLink("B", "A", fifoPipe(1e8), 1e8, 0.010)
	c := newConn(n, []string{"A", "B"})
	c.Start()
	peak := uint64(0)
	var sample func()
	sample = func() {
		peak = max(peak, c.sndNext-c.sndUna)
		eng.Schedule(0.001, sample)
	}
	eng.Schedule(0, sample)
	eng.RunUntil(5)
	if c.Stats().Retransmits != 0 {
		t.Fatalf("clean path with window cap retransmitted: %+v", c.Stats())
	}
	if peak != maxCwnd {
		t.Fatalf("peak in flight %d segments, want the cap of %d", peak, maxCwnd)
	}
	// One window per ~20 ms round trip, not the link rate.
	if got := c.ThroughputBits(5); got > 1.1*maxCwnd*segmentBits/0.020 {
		t.Fatalf("throughput %.0f bit/s exceeds a %d-segment window per round trip", got, maxCwnd)
	}
}

func TestTCPTimeoutPath(t *testing.T) {
	// Drop everything after the initial burst by shrinking the buffer to
	// zero mid-flight: the sender must hit RTO and recover when the
	// buffer returns.
	eng := sim.New()
	names := []string{"A", "B"}
	n := buildDuplex(eng, names, 1e6)
	port := n.Node("A").Port("B")
	c := newConn(n, names)
	c.Start()
	eng.Schedule(1.0, func() { port.SetBufferLimit(0) })
	eng.Schedule(3.0, func() { port.SetBufferLimit(200) })
	eng.RunUntil(30)
	st := c.Stats()
	if st.Timeouts == 0 {
		t.Fatal("expected at least one RTO during the blackout")
	}
	if c.ThroughputBits(30) < 0.3e6 {
		t.Fatalf("throughput after recovery = %v, too low", c.ThroughputBits(30))
	}
}

func TestTCPRTTEstimatorConverges(t *testing.T) {
	eng := sim.New()
	names := []string{"A", "B"}
	n := buildDuplex(eng, names, 1e6)
	c := newConn(n, names)
	c.Start()
	eng.RunUntil(10)
	// RTO should have adapted well below the 1s initial value on an
	// uncongested ~1-2ms RTT path, bounded below by minRTO.
	if c.rto > 0.5 {
		t.Fatalf("RTO = %v, estimator did not converge", c.rto)
	}
	if c.rto < 0.2 {
		t.Fatalf("RTO = %v below minRTO", c.rto)
	}
}

func TestTCPConfigValidation(t *testing.T) {
	eng := sim.New()
	n := buildDuplex(eng, []string{"A", "B"}, 1e6)
	for _, cfg := range []Config{
		{DataFlowID: 1, AckFlowID: 1, Path: []string{"A", "B"}, ReversePath: []string{"B", "A"}},
		{DataFlowID: 1, AckFlowID: 2, Path: []string{"A"}, ReversePath: []string{"B", "A"}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			NewConnection(n, cfg)
		}()
	}
}

func TestTCPStartIdempotent(t *testing.T) {
	eng := sim.New()
	names := []string{"A", "B"}
	n := buildDuplex(eng, names, 1e6)
	c := newConn(n, names)
	c.Start()
	c.Start()
	eng.RunUntil(1)
	if c.Stats().Delivered == 0 {
		t.Fatal("no progress")
	}
}

func TestTCPIgnoresForeignPayload(t *testing.T) {
	eng := sim.New()
	names := []string{"A", "B"}
	n := buildDuplex(eng, names, 1e6)
	c := newConn(n, names)
	c.Start()
	// Inject a stray packet with the data flow id but no Segment payload.
	n.Node("A").Inject(&packet.Packet{FlowID: 1000, Size: 1000, Class: packet.Datagram, Route: &c.dataRoute})
	eng.RunUntil(1)
	if c.Stats().Delivered == 0 {
		t.Fatal("connection wedged by foreign packet")
	}
}
