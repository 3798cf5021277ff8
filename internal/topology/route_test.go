package topology

import (
	"testing"

	"ispn/internal/packet"
	"ispn/internal/sim"
)

// TestRouteMatchesPerNodeTables checks the per-flow Route against an
// independent model: the per-node tables (flow id -> port, flow id -> sink)
// this package kept before routes were transposed. A seeded random sequence
// of installs into each flow's Route (fresh, over overlapping and diverging
// paths, with the terminal moved) and of SetReceiver drives both; after
// every step, for every switch, flow and cursor value, a packet carrying the
// flow's Route must do what the tables say — stale ports on switches a
// reroute left behind included. Every link is down, so a forwarded packet is
// counted at the port it was sent to and goes no further.
func TestRouteMatchesPerNodeTables(t *testing.T) {
	const (
		nodes, flows, steps = 7, 5, 600
		stranded            = -1
	)
	n := NewNetwork(sim.New())
	for i := 1; i <= nodes; i++ {
		n.AddNode(nodeName(i))
	}
	link := func(a, b int) {
		n.AddLink(nodeName(a), nodeName(b), fifoPipe(1e6), 1e6, 0).SetDown(true)
		n.AddLink(nodeName(b), nodeName(a), fifoPipe(1e6), 1e6, 0).SetDown(true)
	}
	for i := 1; i <= nodes; i++ {
		link(i, i%nodes+1)
	}
	link(1, 4)
	link(2, 6)
	link(3, 7)

	// What a switch did with a packet: sent it out of port, or delivered it
	// to the sink with this tag (stranded: panicked, having neither).
	type answer struct {
		port *Port
		sink int
	}
	var sunk int
	observe := func(nd *Node, p *packet.Packet) (a answer) {
		before := make([]int64, len(nd.portOrder))
		for i, pt := range nd.portOrder {
			before[i] = pt.counter.Total
		}
		sunk = 0
		defer func() {
			if recover() != nil {
				a = answer{sink: stranded}
			}
		}()
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
		return answer{sink: stranded}
	}

	held := map[uint32]*Route{} // each flow's Route, as its source holds it
	route := func(id uint32) *Route {
		if held[id] == nil {
			held[id] = new(Route)
		}
		return held[id]
	}
	check := func(step int, what string) {
		t.Helper()
		for _, nd := range n.Nodes() {
			for id := uint32(1); id <= flows; id++ {
				for _, cursor := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255} {
					p := &packet.Packet{FlowID: id, Hops: uint8(cursor), Route: route(id)}
					if got := observe(nd, p); got != want(nd, id) {
						t.Fatalf("step %d (%s): flow %d at %s, cursor %d: got %+v, want %+v",
							step, what, id, nd.name, cursor, got, want(nd, id))
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
		if rng.Intn(10) < 6 {
			path := randomPath()
			for i, nd := range path {
				if i+1 < len(path) {
					next[nd][id] = nd.ports[path[i+1].name]
				} else {
					delete(next[nd], id)
				}
			}
			ports := make([]*Port, len(path)-1)
			for i := range ports {
				ports[i] = path[i].ports[path[i+1].name]
			}
			n.InstallRouteAlong(route(id), id, path[0], ports)
			check(step, "install")
			continue
		}
		// A switch takes one receiver per route: pick one that has none.
		nd := n.Nodes()[rng.Intn(nodes)]
		if sinks[nd][id] != 0 {
			continue
		}
		tag++
		mine := tag
		route(id).SetReceiver(nd, Sink(func(*packet.Packet) { sunk = mine }))
		sinks[nd][id] = mine
		check(step, "sink")
	}
}
