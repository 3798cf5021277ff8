package topology

import (
	"testing"

	"ispn/internal/packet"
	"ispn/internal/sched"
	"ispn/internal/sim"
)

// Regression tests for link failure and restore around non-work-conserving
// schedulers: a failure must surface and drop the packets a Stop-and-Go
// scheduler is holding for a future eligibility time (they used
// to strand inside the scheduler, leaking from the pool and desyncing the
// port's occupancy mirror), and a restore must re-arm transmission when any
// backlog survived the outage.

// failNet builds A -> B with the given scheduler and a sink for flow 1.
func failNet(eng *sim.Engine, s sched.Scheduler, delivered *int) *Network {
	n := NewNetwork(eng)
	n.AddNode("A")
	n.AddNode("B")
	n.AddLink("A", "B", s, 1e6, 0)
	n.InstallRoute(1, []string{"A", "B"})
	n.Node("B").SetSink(1, func(p *packet.Packet) { *delivered++ })
	return n
}

func TestFailDropsStopAndGoHeldPackets(t *testing.T) {
	eng := sim.New()
	delivered := 0
	// 1 s frames: packets arriving in [0,1) are not eligible until t=1.
	n := failNet(eng, sched.NewStopAndGo(1.0), &delivered)
	pt := n.Node("A").Port("B")

	for i := 0; i < 4; i++ {
		p := n.Pool().Get()
		p.FlowID = 1
		p.Size = 1000
		n.Inject("A", p)
	}
	eng.Schedule(0.5, func() { pt.SetDown(true) })
	eng.RunUntil(2.0)

	if delivered != 0 {
		t.Fatalf("delivered %d packets across a failed link", delivered)
	}
	if got := pt.Counter().Dropped; got != 4 {
		t.Fatalf("failure dropped %d packets, want 4", got)
	}
	if pt.qlen != 0 || pt.Scheduler().Len() != 0 {
		t.Fatalf("backlog survived the flush: qlen %d, sched %d", pt.qlen, pt.Scheduler().Len())
	}
	gets, puts, _ := n.Pool().Stats()
	if gets != puts {
		t.Fatalf("pool leak: %d gets vs %d puts", gets, puts)
	}
}

func TestRestoreResumesServiceAfterFailure(t *testing.T) {
	eng := sim.New()
	delivered := 0
	// 0.5 s frames: a packet arriving in [0, 0.5) is held until t=0.5.
	n := failNet(eng, sched.NewStopAndGo(0.5), &delivered)
	pt := n.Node("A").Port("B")
	inject := func() {
		p := n.Pool().Get()
		p.FlowID = 1
		p.Size = 1000
		n.Inject("A", p)
	}

	inject() // held until 0.5
	eng.Schedule(0.1, func() { pt.SetDown(true) })
	eng.Schedule(0.2, func() { pt.SetDown(false) })
	// Fresh traffic after restore must flow normally.
	eng.Schedule(0.3, inject)
	eng.RunUntil(1.0)

	if delivered != 1 {
		t.Fatalf("delivered %d packets after restore, want 1 (the post-restore packet)", delivered)
	}
	gets, puts, _ := n.Pool().Stats()
	if gets != puts {
		t.Fatalf("pool leak: %d gets vs %d puts", gets, puts)
	}
}

func TestRestoreRearmsStrandedBacklog(t *testing.T) {
	// A restore must kick transmission when the scheduler is non-empty:
	// backlog can survive an outage through a scheduler swap while down
	// (core.SetLinkProfile migrates queued packets into the new pipeline).
	// Model that by placing a packet behind the port's back.
	eng := sim.New()
	delivered := 0
	n := failNet(eng, sched.NewFIFO(), &delivered)
	pt := n.Node("A").Port("B")

	pt.SetDown(true)
	p := n.Pool().Get()
	p.FlowID = 1
	p.Size = 1000
	pt.sched.Enqueue(p, eng.Now())
	pt.qlen++

	eng.Schedule(0.1, func() { pt.SetDown(false) })
	eng.RunUntil(1.0)

	if delivered != 1 {
		t.Fatalf("stranded backlog not delivered after restore (delivered %d)", delivered)
	}
}

func TestUtilizationResetsOnBandwidthChange(t *testing.T) {
	eng := sim.New()
	delivered := 0
	n := failNet(eng, sched.NewFIFO(), &delivered)
	pt := n.Node("A").Port("B")

	// ~0.9 utilization for 2 s: 900 kbit/s of 1000-bit packets on 1 Mbit/s.
	for i := 0; i < 1800; i++ {
		at := float64(i) / 900.0
		eng.Schedule(at, func() {
			p := n.Pool().Get()
			p.FlowID = 1
			p.Size = 1000
			n.Inject("A", p)
		})
	}
	eng.RunUntil(2.0)
	if u := pt.Utilization(eng.Now()); u < 0.8 || u > 1.0 {
		t.Fatalf("pre-change utilization %v, want ~0.9", u)
	}

	// Cut the link to 300 kbit/s. The old windows measured 900 kbit/s;
	// dividing them by the new bandwidth would report 300% utilization
	// for a full measurement span.
	pt.SetBandwidth(3e5)
	if u := pt.Utilization(eng.Now()); u != 0 {
		t.Fatalf("utilization %v immediately after a rate change, want 0 (measurement restarts)", u)
	}

	// New traffic at ~150 kbit/s: utilization must converge to ~0.5 of
	// the new rate, not a stale fraction of the old one.
	for i := 0; i < 300; i++ {
		at := float64(i) / 150.0 // delay from now (t=2)
		eng.Schedule(at, func() {
			p := n.Pool().Get()
			p.FlowID = 1
			p.Size = 1000
			n.Inject("A", p)
		})
	}
	eng.RunUntil(4.5)
	if u := pt.Utilization(eng.Now()); u < 0.3 || u > 0.7 {
		t.Fatalf("post-change utilization %v, want ~0.5 of the new rate", u)
	}
}
