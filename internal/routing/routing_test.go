package routing

import (
	"reflect"
	"testing"

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

// kilobit prices every port's transmission term with the paper's packet.
func kilobit(*topology.Port) int { return 1000 }

// diamond builds A -> B -> D (fast, short) and A -> C -> D (detour), plus a
// long chain A -> X -> Y -> D.
func diamond(t *testing.T) *topology.Network {
	t.Helper()
	eng := sim.New()
	n := topology.NewNetwork(eng)
	for _, name := range []string{"A", "B", "C", "D", "X", "Y"} {
		n.AddNode(name)
	}
	link := func(from, to string, rate, prop float64) {
		n.AddLink(from, to, fifoPipe(rate), rate, prop)
	}
	link("A", "B", 1e6, 0.001)
	link("B", "D", 1e6, 0.001)
	link("A", "C", 1e6, 0.010)
	link("C", "D", 1e6, 0.010)
	link("A", "X", 1e6, 0.001)
	link("X", "Y", 1e6, 0.001)
	link("Y", "D", 1e6, 0.001)
	return n
}

func TestShortestPathByHops(t *testing.T) {
	n := diamond(t)
	g := NewGraph(n, CostHops)
	path, ok := g.ShortestPath("A", "D", 0, nil)
	if !ok {
		t.Fatal("no path A -> D")
	}
	// A->B->D and A->C->D tie at 2 hops; B was created first, so the tie
	// must break toward it — deterministically.
	want := []string{"A", "B", "D"}
	if !reflect.DeepEqual(path, want) {
		t.Fatalf("path %v, want %v", path, want)
	}
}

func TestShortestPathByDelayPrefersFastLinks(t *testing.T) {
	n := diamond(t)
	g := NewGraph(n, CostDelayPer(kilobit))
	path, _ := g.ShortestPath("A", "D", 0, nil)
	// Via C costs 20 ms of propagation; the 3-hop chain costs 3 ms + 3 tx.
	want := []string{"A", "B", "D"}
	if !reflect.DeepEqual(path, want) {
		t.Fatalf("path %v, want %v", path, want)
	}
	// Fail A->B: delay cost must now prefer the 3-hop chain over the
	// 20 ms detour.
	n.Node("A").Port("B").SetDown(true)
	path, _ = g.ShortestPath("A", "D", 0, nil)
	want = []string{"A", "X", "Y", "D"}
	if !reflect.DeepEqual(path, want) {
		t.Fatalf("path around failure %v, want %v", path, want)
	}
}

func TestShortestPathExcludesFailedLinks(t *testing.T) {
	n := diamond(t)
	g := NewGraph(n, CostHops)
	n.Node("A").Port("B").SetDown(true)
	path, ok := g.ShortestPath("A", "D", 0, nil)
	if !ok {
		t.Fatal("no path around single failure")
	}
	want := []string{"A", "C", "D"}
	if !reflect.DeepEqual(path, want) {
		t.Fatalf("path %v, want %v", path, want)
	}
	// Fail every way out of A: no path may be invented.
	n.Node("A").Port("C").SetDown(true)
	n.Node("A").Port("X").SetDown(true)
	if p, ok := g.ShortestPath("A", "D", 0, nil); ok {
		t.Fatalf("found path %v across a fully failed cut", p)
	}
}

func TestShortestPathUnknownEndpoint(t *testing.T) {
	n := diamond(t)
	g := NewGraph(n, CostHops)
	if _, ok := g.ShortestPath("A", "nope", 0, nil); ok {
		t.Fatal("path to unknown node")
	}
	if p, ok := g.ShortestPath("A", "A", 0, nil); !ok || len(p) != 1 {
		t.Fatalf("self path %v, %v", p, ok)
	}
}
