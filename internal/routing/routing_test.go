package routing

import (
	"reflect"
	"testing"

	"ispn/internal/packet"
	"ispn/internal/sched"
	"ispn/internal/sim"
	"ispn/internal/topology"
)

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
		n.AddLink(from, to, sched.NewFIFO(), rate, prop)
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
	g := NewGraph(n, nil)
	if _, ok := g.ShortestPath("A", "nope", 0, nil); ok {
		t.Fatal("path to unknown node")
	}
	if p, ok := g.ShortestPath("A", "A", 0, nil); !ok || len(p) != 1 {
		t.Fatalf("self path %v, %v", p, ok)
	}
}

func TestAlternatePaths(t *testing.T) {
	n := diamond(t)
	g := NewGraph(n, CostHops)
	paths := g.AlternatePaths("A", "D", 4, 0)
	if len(paths) < 2 {
		t.Fatalf("got %d alternates, want >= 2: %v", len(paths), paths)
	}
	if !reflect.DeepEqual(paths[0], []string{"A", "B", "D"}) {
		t.Fatalf("cheapest alternate %v, want A B D", paths[0])
	}
	// Every alternate must be loop-free and distinct.
	seen := map[string]bool{}
	for _, p := range paths {
		key := pathKey(p)
		if seen[key] {
			t.Fatalf("duplicate alternate %v", p)
		}
		seen[key] = true
	}
	// A failed link never appears in any alternate.
	n.Node("A").Port("B").SetDown(true)
	for _, p := range g.AlternatePaths("A", "D", 4, 0) {
		for i := 0; i < len(p)-1; i++ {
			if p[i] == "A" && p[i+1] == "B" {
				t.Fatalf("alternate %v crosses the failed link", p)
			}
		}
	}
}

func TestCostLoadAvoidsBusyLink(t *testing.T) {
	n := diamond(t)
	g := NewGraph(n, CostLoadPer(kilobit))
	// With no load, the fast 2-hop path wins despite the tie with A->C->D
	// on hop count (it has 10x less propagation).
	path, _ := g.ShortestPath("A", "D", 0, nil)
	if !reflect.DeepEqual(path, []string{"A", "B", "D"}) {
		t.Fatalf("unloaded path %v, want A B D", path)
	}
	// Drive ~90% utilization through A->B for 2 simulated seconds; the
	// load-sensitive cost must then route away from it while the plain
	// delay cost would not.
	eng := n.Node("A").Engine()
	n.InstallRoute(7, []string{"A", "B"})
	n.Node("B").SetSink(7, func(p *packet.Packet) {})
	for i := 0; i < 1800; i++ {
		eng.AtControl(float64(i)/900.0, func() {
			q := n.Pool().Get()
			q.FlowID = 7
			q.Size = 1000
			n.Inject("A", q)
		})
	}
	eng.RunUntil(2.0)
	now := eng.Now()
	if u := n.Node("A").Port("B").Utilization(now); u < 0.8 {
		t.Fatalf("setup: A->B utilization %v, want ~0.9", u)
	}
	path, _ = g.ShortestPath("A", "D", now, nil)
	if reflect.DeepEqual(path, []string{"A", "B", "D"}) {
		t.Fatalf("load-sensitive cost still routes over the saturated link: %v", path)
	}
	if dp, _ := NewGraph(n, CostDelayPer(kilobit)).ShortestPath("A", "D", now, nil); !reflect.DeepEqual(dp, []string{"A", "B", "D"}) {
		t.Fatalf("load-blind delay cost changed its path: %v", dp)
	}
}
