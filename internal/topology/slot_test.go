package topology

import (
	"fmt"
	"strings"
	"testing"

	"ispn/internal/packet"
	"ispn/internal/sched"
	"ispn/internal/sim"
)

// slotRig is one delayed port, A -> B at 1 Mbit/s with 5 ms of propagation,
// under the unified pipeline (a predicted packet before a datagram), so the
// order in which packets leave shows whether they waited for the wire-free
// instant or found the port idle. A 1000-bit packet is on the wire for 1 ms.
type slotRig struct {
	eng *sim.Engine
	n   *Network
	pt  *Port
	r   *Route
	got []string
}

const (
	slotRate  = 1e6
	slotDelay = 0.005
)

func newSlotRig() *slotRig {
	r := &slotRig{eng: sim.New()}
	r.n = NewNetwork(r.eng)
	r.n.AddNode("A")
	r.n.AddNode("B")
	r.pt = r.n.AddLink("A", "B", newPipe(sched.Profile{}, slotRate), slotRate, slotDelay)
	r.r = routeTo(r.n, 1, []string{"A", "B"}, func(p *packet.Packet) {
		r.got = append(r.got, fmt.Sprintf("%d@%.4f", p.Seq, r.eng.Now()))
	})
	return r
}

// send injects packet seq of size bits at A: a datagram, or with urgent a
// predicted packet, which leaves first when both wait.
func (r *slotRig) send(seq uint64, bits int, urgent bool) {
	p := r.n.Pool().Get()
	p.FlowID, p.Seq, p.Size, p.Class = 1, seq, bits, packet.Datagram
	if urgent {
		p.Class = packet.Predicted
	}
	send(r.n, "A", r.r, p)
}

// at runs fn at time t as a data event (ordered after a slot reserved
// earlier for the same instant).
func (r *slotRig) at(t float64, fn func()) {
	r.eng.AtCallKeyed(t, sim.KeyData, func(any) { fn() }, nil)
}

// TestDelayedPortSlots drives one delayed port through the edge cases of its
// wire-free slot and checks the deliveries (packet@time), the events the
// engine fired, and that every packet left the port and the pool. The first
// packet is sent at 0.1 s, so its wire goes free at free = 0.1 + 1 ms.
func TestDelayedPortSlots(t *testing.T) {
	free := 0.1 + 1000/slotRate
	cases := []struct {
		name   string
		run    func(r *slotRig)
		want   string
		events uint64
		drops  int64
	}{{
		// The wire-free event is claimed by packet 2 and, as packet 3 is
		// still queued when packet 2 starts, scheduled again at once.
		name: "three packets at one instant leave back to back",
		run: func(r *slotRig) {
			r.at(0.1, func() { r.send(1, 1000, false); r.send(2, 1000, false); r.send(3, 1000, false) })
		},
		want:   "1@0.1060 2@0.1070 3@0.1080",
		events: 1 + 2 + 3,
	}, {
		// A control event at the slot's instant fires before it: the wire
		// is still busy, both arrivals wait, and the urgent one leaves
		// first.
		name: "arrivals at the slot instant, ordered before it",
		run: func(r *slotRig) {
			r.at(0.1, func() { r.send(1, 1000, false) })
			r.eng.AtControl(free, func() { r.send(2, 1000, false); r.send(3, 1000, true) })
		},
		want:   "1@0.1060 3@0.1070 2@0.1080",
		events: 2 + 2 + 3,
	}, {
		// A data event scheduled after the transmission started fires
		// after the slot: the port is idle and the first arrival leaves.
		name: "arrivals at the slot instant, ordered after it",
		run: func(r *slotRig) {
			r.at(0.1, func() {
				r.send(1, 1000, false)
				r.at(free, func() { r.send(2, 1000, false); r.send(3, 1000, true) })
			})
		},
		want:   "1@0.1060 2@0.1070 3@0.1080",
		events: 2 + 1 + 3,
	}, {
		// Stepping to the slot's instant passes it, so a control event
		// injected there between steps finds the port idle.
		name: "arrivals at the slot instant, injected between steps",
		run: func(r *slotRig) {
			r.at(0.1, func() { r.send(1, 1000, false) })
			r.eng.RunUntil(free)
			r.eng.AtControl(free, func() { r.send(2, 1000, false); r.send(3, 1000, true) })
		},
		want:   "1@0.1060 2@0.1070 3@0.1080",
		events: 2 + 1 + 3,
	}, {
		// The packet on the wire still arrives; a packet sent into the
		// outage is dropped and claims nothing; after a restore before
		// the slot, the wire is still busy until it.
		name: "failed with a pending slot, restored before it",
		run: func(r *slotRig) {
			r.at(0.1, func() { r.send(1, 1000, false) })
			r.at(0.1004, func() { r.pt.SetDown(true) })
			r.at(0.1005, func() { r.send(9, 1000, true) })
			r.at(0.1006, func() { r.pt.SetDown(false) })
			r.at(0.1008, func() { r.send(2, 1000, false) })
		},
		want:   "1@0.1060 2@0.1070",
		events: 5 + 1 + 2,
		drops:  1,
	}, {
		name: "failed with a pending slot, restored after it",
		run: func(r *slotRig) {
			r.at(0.1, func() { r.send(1, 1000, false) })
			r.at(0.1004, func() { r.pt.SetDown(true) })
			r.at(0.1005, func() { r.send(9, 1000, true) })
			r.at(0.102, func() { r.pt.SetDown(false) })
			r.at(0.103, func() { r.send(2, 1000, false) })
		},
		want:   "1@0.1060 2@0.1090",
		events: 5 + 2,
		drops:  1,
	}, {
		// A swap with the slot unclaimed migrates nothing; one after the
		// slot is claimed migrates the waiting packet, which the claimed
		// event then sends from the new pipeline.
		name: "scheduler swaps while a slot is pending",
		run: func(r *slotRig) {
			r.at(0.1, func() { r.send(1, 1000, false) })
			r.at(0.1004, func() { r.pt.SetPipeline(fifoPipe(slotRate)) })
			r.at(0.1006, func() { r.send(2, 1000, false) })
			r.at(0.1008, func() { r.pt.SetPipeline(fifoPipe(slotRate)) })
			r.at(0.2, func() { r.send(3, 1000, false) })
		},
		want:   "1@0.1060 2@0.1070 3@0.2060",
		events: 5 + 1 + 3,
	}, {
		// A zero-length transmission frees the wire at the instant it
		// starts: no slot can lie there, so the wire-free event runs.
		name: "a zero-size packet",
		run: func(r *slotRig) {
			r.at(0.1, func() { r.send(1, 0, false); r.send(2, 1000, false) })
			r.at(0.2, func() { r.send(3, 0, false) })
		},
		want:   "1@0.1050 2@0.1060 3@0.2050",
		events: 2 + 2 + 3,
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newSlotRig()
			c.run(r)
			r.eng.RunUntil(1)
			if got := strings.Join(r.got, " "); got != c.want {
				t.Errorf("deliveries %s, want %s", got, c.want)
			}
			if got := r.eng.Processed(); got != c.events {
				t.Errorf("%d events fired, want %d", got, c.events)
			}
			if got := r.pt.Counter().Dropped; got != c.drops {
				t.Errorf("%d drops, want %d", got, c.drops)
			}
			if r.pt.QueueLen() != 0 || r.pt.busy() || r.eng.Pending() != 0 {
				t.Errorf("port left queued %d, busy %v, %d events pending", r.pt.QueueLen(), r.pt.busy(), r.eng.Pending())
			}
			if gets, puts, _ := r.n.Pool().Stats(); gets != puts {
				t.Errorf("pool: %d gets, %d puts", gets, puts)
			}
		})
	}
}
