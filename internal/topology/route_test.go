package topology

import (
	"testing"

	"ispn/internal/packet"
	"ispn/internal/sched"
	"ispn/internal/sim"
)

// TestRouteMatchesPerNodeTables checks the per-flow Route against an
// independent model: the per-node tables (flow id -> port, flow id -> sink)
// this package kept before routes were transposed. A seeded random sequence
// of InstallRoute (fresh, over overlapping and diverging paths, with the
// terminal moved), SetSink and RemoveRoute drives both; after every step,
// for every switch, flow and cursor value, a packet handed to the switch
// must do what the tables say — stale ports on switches a reroute left
// behind included. Every link is down, so a forwarded packet is counted at
// the port it was sent to and goes no further.
func TestRouteMatchesPerNodeTables(t *testing.T) {
	const (
		nodes, flows, steps = 7, 5, 600
		byDefault           = -1
	)
	n := NewNetwork(sim.New())
	for i := 1; i <= nodes; i++ {
		n.AddNode(nodeName(i))
	}
	link := func(a, b int) {
		n.AddLink(nodeName(a), nodeName(b), sched.NewFIFO(), 1e6, 0).SetDown(true)
		n.AddLink(nodeName(b), nodeName(a), sched.NewFIFO(), 1e6, 0).SetDown(true)
	}
	for i := 1; i <= nodes; i++ {
		link(i, i%nodes+1)
	}
	link(1, 4)
	link(2, 6)
	link(3, 7)

	// What a switch did with a packet: sent it out of port, or delivered it
	// to the sink with this tag (byDefault: the switch's default sink).
	type answer struct {
		port *Port
		sink int
	}
	var sunk int
	for _, nd := range n.Nodes() {
		nd.SetDefaultSink(func(*packet.Packet) { sunk = byDefault })
	}
	observe := func(nd *Node, p *packet.Packet) answer {
		before := make([]int64, len(nd.portOrder))
		for i, pt := range nd.portOrder {
			before[i] = pt.counter.Total
		}
		sunk = 0
		nd.receive(p)
		for i, pt := range nd.portOrder {
			if pt.counter.Total != before[i] {
				return answer{port: pt}
			}
		}
		return answer{sink: sunk}
	}

	// The model.
	next := map[*Node]map[uint32]*Port{}
	sinks := map[*Node]map[uint32]int{}
	for _, nd := range n.Nodes() {
		next[nd], sinks[nd] = map[uint32]*Port{}, map[uint32]int{}
	}
	want := func(nd *Node, id uint32) answer {
		if pt := next[nd][id]; pt != nil {
			return answer{port: pt}
		}
		if tag := sinks[nd][id]; tag != 0 {
			return answer{sink: tag}
		}
		return answer{sink: byDefault}
	}

	held := map[uint32]*Route{} // what InstallRoute returned, as a source would hold it
	check := func(step int, what string) {
		t.Helper()
		for _, nd := range n.Nodes() {
			for id := uint32(1); id <= flows; id++ {
				for _, cursor := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255} {
					raw := &packet.Packet{FlowID: id, Hops: uint8(cursor)}
					if got := observe(nd, raw); got != want(nd, id) {
						t.Fatalf("step %d (%s): flow %d at %s, cursor %d, by id: got %+v, want %+v",
							step, what, id, nd.name, cursor, got, want(nd, id))
					}
					if r := held[id]; r != nil {
						stamped := &packet.Packet{FlowID: id, Hops: uint8(cursor), Route: r}
						if got := observe(nd, stamped); got != want(nd, id) {
							t.Fatalf("step %d (%s): flow %d at %s, cursor %d, stamped: got %+v, want %+v",
								step, what, id, nd.name, cursor, got, want(nd, id))
						}
					}
				}
			}
		}
	}

	rng := sim.NewRNG(1992)
	randomPath := func() []*Node { // a loop-free walk of 1..5 switches
		at := n.Nodes()[rng.Intn(nodes)]
		path, seen := []*Node{at}, map[*Node]bool{at: true}
		for links := rng.Intn(5); len(path) <= links; {
			pt := at.portOrder[rng.Intn(len(at.portOrder))]
			if seen[pt.dst] {
				break
			}
			at = pt.dst
			path, seen[at] = append(path, at), true
		}
		return path
	}
	tag := 0
	for step := 0; step < steps; step++ {
		id := uint32(1 + rng.Intn(flows))
		switch k := rng.Intn(10); {
		case k < 6:
			path := randomPath()
			names := make([]string, len(path))
			for i, nd := range path {
				names[i] = nd.name
				if i+1 < len(path) {
					next[nd][id] = nd.ports[path[i+1].name]
				} else {
					delete(next[nd], id)
				}
			}
			held[id] = n.InstallRoute(id, names)
			check(step, "install")
		case k < 9:
			nd := n.Nodes()[rng.Intn(nodes)]
			tag++
			mine := tag
			nd.SetSink(id, func(*packet.Packet) { sunk = mine })
			sinks[nd][id] = mine
			check(step, "sink")
		default:
			// Packets that carry the route do after the removal what they
			// did before it; packets that name the flow find nothing.
			r := held[id]
			var before []answer
			if r != nil {
				for _, nd := range n.Nodes() {
					before = append(before, observe(nd, &packet.Packet{FlowID: id, Route: r}))
				}
			}
			n.RemoveRoute(id)
			for _, nd := range n.Nodes() {
				delete(next[nd], id)
				delete(sinks[nd], id)
			}
			delete(held, id)
			check(step, "remove")
			if r != nil {
				for i, nd := range n.Nodes() {
					if got := observe(nd, &packet.Packet{FlowID: id, Route: r}); got != before[i] {
						t.Fatalf("step %d: flow %d at %s, carried past removal: got %+v, want %+v", step, id, nd.name, got, before[i])
					}
				}
			}
		}
		if len(n.routes) > flows {
			t.Fatalf("step %d: %d routes for %d flows", step, len(n.routes), flows)
		}
	}
}
