package tcp

import (
	"fmt"
	"math"
	"strings"
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
	// A stray packet on the data route reads as a data segment numbered
	// by its Seq; the connection must keep going.
	n.Node("A").Inject(&packet.Packet{FlowID: 1000, Size: 1000, Class: packet.Datagram, Route: &c.dataRoute})
	eng.RunUntil(1)
	if c.Stats().Delivered == 0 {
		t.Fatal("connection wedged by foreign packet")
	}
}

// The retransmission timer: each timeout fires exactly at the last armed
// deadline — after an event scheduled for that instant before the arm,
// before one scheduled after it — whether a re-arm moved the deadline later
// or earlier, and none fires after a disarm or Stop. A timeout re-arms at
// twice the rto with nothing outstanding, so that deadline fires uncounted.
func TestTCPTimerFiresAtLastArmedDeadline(t *testing.T) {
	eng := sim.New()
	names := []string{"A", "B"}
	c := newConn(buildDuplex(eng, names, 1e6), names)
	c.stopped = true // sends nothing: a timeout only counts and re-arms
	var log strings.Builder
	probe := func(label string) func() {
		return func() { fmt.Fprintf(&log, "%g %s %d\n", eng.Now(), label, c.Stats().Timeouts) }
	}
	// arm sets the timer rto from now with one segment outstanding, and
	// brackets its deadline with probes.
	arm := func(rto float64) func() {
		return func() {
			eng.Schedule(rto, probe("before"))
			c.sndNext = c.sndUna + 1
			c.rto = rto
			c.armTimer()
			eng.Schedule(rto, probe("after"))
		}
	}
	disarm := func() { c.armed = false } // as an ACK of everything sent does
	steps := []struct {
		at float64
		do func()
	}{
		{0, arm(1)},         // deadline 1
		{0.5, arm(1)},       // later: 1.5
		{0.625, arm(0.125)}, // earlier: 0.75 fires, re-arms to 1
		{2, arm(1)},         // 3
		{2.5, disarm},
		{4, arm(1)}, // 5
		{4.5, c.Stop},
		{6, arm(0.5)}, // 6.5 fires, re-arms to 7.5
		{8, arm(1)},   // 9
		{8.25, disarm},
		{8.5, arm(0.25)}, // before the idle wake-up: 8.75 fires, re-arms to 9.25
		{10, arm(1)},     // 11
		{10.25, disarm},
		{10.5, arm(1)}, // after the idle wake-up: 11.5 fires, re-arms to 13.5
	}
	for _, step := range steps {
		eng.AtControl(step.at, step.do)
	}
	eng.RunUntil(20)
	want := `0.75 before 0
0.75 after 1
1 before 1
1 after 1
1.5 before 1
1.5 after 1
3 before 1
3 after 1
5 before 1
5 after 1
6.5 before 1
6.5 after 2
8.75 before 2
8.75 after 3
9 before 3
9 after 3
11 before 3
11 after 3
11.5 before 3
11.5 after 4
`
	if got := log.String(); got != want {
		t.Fatalf("probes:\n%s\nwant:\n%s", got, want)
	}
	// One wake-up per arm that finds none live at or before its deadline
	// (1, 0.75, 1 again, 3, 5, 6.5, 7.5, 9, 8.75, 9.25, 11, 13.5) and one
	// per move to a later deadline (11 to 11.5): a wake-up that was passed
	// over claims nothing.
	if wakes := eng.Processed() - uint64(len(steps)+strings.Count(want, "\n")); wakes != 13 || eng.Pending() != 0 {
		t.Fatalf("%d wake-ups fired, %d events pending; want 13 and 0", wakes, eng.Pending())
	}
}
