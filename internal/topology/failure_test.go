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

// failNet builds A -> B with the given pipeline and a sink for flow 1,
// and returns the network and flow 1's route.
func failNet(eng *sim.Engine, pl *sched.Pipeline, delivered *int) (*Network, *Route) {
	n := NewNetwork(eng)
	n.AddNode("A")
	n.AddNode("B")
	n.AddLink("A", "B", pl, 1e6, 0)
	return n, routeTo(n, 1, []string{"A", "B"}, func(p *packet.Packet) { *delivered++ })
}

func TestFailDropsStopAndGoHeldPackets(t *testing.T) {
	eng := sim.New()
	delivered := 0
	// 1 s frames: packets arriving in [0,1) are not eligible until t=1.
	n, r := failNet(eng, stopAndGoPipe(1.0, 1e6), &delivered)
	pt := n.Node("A").Port("B")

	for i := 0; i < 4; i++ {
		p := n.Pool().Get()
		p.FlowID = 1
		p.Size = 1000
		send(n, "A", r, p)
	}
	eng.Schedule(0.5, func() { pt.SetDown(true) })
	eng.RunUntil(2.0)

	if delivered != 0 {
		t.Fatalf("delivered %d packets across a failed link", delivered)
	}
	if got := pt.Counter().Dropped; got != 4 {
		t.Fatalf("failure dropped %d packets, want 4", got)
	}
	if pt.qlen != 0 || pt.pipe.Len() != 0 {
		t.Fatalf("backlog survived the flush: qlen %d, pipeline %d", pt.qlen, pt.pipe.Len())
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
	n, r := failNet(eng, stopAndGoPipe(0.5, 1e6), &delivered)
	pt := n.Node("A").Port("B")
	inject := func() {
		p := n.Pool().Get()
		p.FlowID = 1
		p.Size = 1000
		send(n, "A", r, p)
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

// TestEveryKindSwapAndFailure swaps a port's pipeline from every kind to
// every kind under a mixed backlog, then fails and restores the link. Each
// step must keep the port's conservation identity and its queue-length
// mirror, and after the drain every packet is back in the pool. Stop-and-Go
// runs 1 s frames here, so its packets are still inside their arrival frame
// at the swap and at the failure: both must surface them (drainOne) or they
// are lost inside a pipeline the port no longer holds.
func TestEveryKindSwapAndFailure(t *testing.T) {
	kinds := sched.PipelineKinds()
	build := func(kind string) *sched.Pipeline {
		pl := newPipe(sched.Profile{Kind: kind, ClassTargets: []float64{1, 2}}, 1e6)
		if pl.SupportsGuaranteed() {
			pl.AddGuaranteed(1, 1e5) // as core re-registers reservations before a swap
		}
		return pl
	}
	for _, from := range kinds {
		for _, to := range kinds {
			t.Run(from+"->"+to, func(t *testing.T) {
				eng := sim.New()
				delivered := 0
				n, r := failNet(eng, build(from), &delivered)
				pt := n.Node("A").Port("B")
				inject := func(k int) {
					for i := range k {
						p := n.Pool().Get()
						p.Size = 1000
						switch i % 4 {
						case 0:
							p.FlowID, p.Class = 1, packet.Guaranteed
						case 1, 2:
							p.FlowID, p.Class, p.Priority = 2, packet.Predicted, uint8(i%4-1)
						default:
							p.FlowID, p.Class = 3, packet.Datagram
						}
						send(n, "A", r, p)
					}
				}
				check := func(step string) {
					c, queued := pt.Counter(), pt.Pipeline().Len()
					if got := c.Dropped + pt.Discarded() + pt.TxPackets() + int64(queued); got != c.Total {
						t.Errorf("%s: enqueued %d != dropped %d + discarded %d + transmitted %d + queued %d",
							step, c.Total, c.Dropped, pt.Discarded(), pt.TxPackets(), queued)
					}
					if q := pt.QueueLen(); q != queued {
						t.Errorf("%s: port mirror %d != pipeline %d", step, q, queued)
					}
				}
				var backlog int
				eng.Schedule(0.1, func() {
					inject(12)
					check("backlog")
					backlog = pt.Pipeline().Len()
				})
				eng.Schedule(0.1003, func() {
					pt.SetPipeline(build(to))
					check("swap")
					if got := pt.Pipeline().Len(); got != backlog {
						t.Errorf("swap: %d packets migrated, want %d", got, backlog)
					}
				})
				eng.Schedule(0.1005, func() {
					inject(4)
					pt.SetDown(true)
					check("fail")
					if got := pt.Pipeline().Len(); got != 0 {
						t.Errorf("fail: %d packets survived the flush", got)
					}
				})
				eng.Schedule(0.1007, func() {
					pt.SetDown(false)
					check("restore")
				})
				eng.Schedule(0.2, func() { inject(4) })
				eng.RunUntil(5)
				check("drain")
				if backlog < 11 {
					t.Errorf("backlog %d at the swap, want at least 11", backlog)
				}
				if got := int64(delivered); got != pt.TxPackets() || got < 4 {
					t.Errorf("delivered %d, transmitted %d; want equal and at least the 4 sent after the restore", got, pt.TxPackets())
				}
				if gets, puts, _ := n.Pool().Stats(); gets != puts {
					t.Errorf("pool: %d gets, %d puts", gets, puts)
				}
			})
		}
	}
}
