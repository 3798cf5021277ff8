package routing

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ispn/internal/sim"
	"ispn/internal/topology"
)

// scanShortestPath is Graph.ShortestPath as it stood with an O(V²) scan for
// the next node to settle, copied verbatim but for its own scratch.
func scanShortestPath(g *Graph, from, to string, now float64, avoid map[*topology.Port]bool) ([]string, bool) {
	idx, nodes := g.index()
	src, okS := idx[from]
	dst, okD := idx[to]
	if !okS || !okD {
		return nil, false
	}
	if src == dst {
		return []string{from}, true
	}
	dist := make([]float64, len(nodes))
	prev := make([]int, len(nodes))
	done := make([]bool, len(nodes))
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
		done[i] = false
	}
	dist[src] = 0
	for {
		u, best := -1, math.Inf(1)
		for i := range nodes {
			if !done[i] && dist[i] < best {
				u, best = i, dist[i]
			}
		}
		if u < 0 || u == dst {
			break
		}
		done[u] = true
		for _, pt := range nodes[u].Ports() {
			if pt.Down() || avoid[pt] {
				continue
			}
			v := pt.To().Index()
			if done[v] {
				continue
			}
			c := g.cost(pt, now)
			if c <= 0 {
				c = math.SmallestNonzeroFloat64
			}
			if d := dist[u] + c; d < dist[v] {
				dist[v] = d
				prev[v] = u
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, false
	}
	var rev []int
	for v := dst; v >= 0; v = prev[v] {
		rev = append(rev, v)
	}
	path := make([]string, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = nodes[v].Name()
	}
	return path, true
}

// chordalRing builds the churn workloads' mesh: n nodes on a ring plus an
// i–i+chord link at every node, both directions, all links alike — so
// shortest paths tie everywhere.
func chordalRing(n, chord int) *topology.Network {
	net := topology.NewNetwork(sim.New())
	for i := 0; i < n; i++ {
		net.AddNode(fmt.Sprintf("n%d", i+1))
	}
	duplex := func(a, b int) {
		x, y := fmt.Sprintf("n%d", a%n+1), fmt.Sprintf("n%d", b%n+1)
		net.AddLink(x, y, fifoPipe(100e6), 100e6, 0.001)
		net.AddLink(y, x, fifoPipe(100e6), 100e6, 0.001)
	}
	for i := 0; i < n; i++ {
		duplex(i, i+1)
		duplex(i, i+chord)
	}
	return net
}

// randomNet builds n nodes joined by random directed links whose rates and
// delays come from a short list, so equal-cost paths are common under the
// delay cost too.
func randomNet(rng *rand.Rand, n int) *topology.Network {
	net := topology.NewNetwork(sim.New())
	for i := 0; i < n; i++ {
		net.AddNode(fmt.Sprintf("v%d", i))
	}
	rates := []float64{1e6, 2e6, 1e7}
	props := []float64{0, 0.001, 0.002, 0.004}
	linked := map[[2]int]bool{}
	for k := 0; k < 3*n; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b || linked[[2]int{a, b}] {
			continue
		}
		linked[[2]int{a, b}] = true
		rate := rates[rng.Intn(len(rates))]
		net.AddLink(fmt.Sprintf("v%d", a), fmt.Sprintf("v%d", b), fifoPipe(rate), rate, props[rng.Intn(len(props))])
	}
	return net
}

// fan builds k equal-cost two-hop routes S -> Mi -> D, linked in reverse
// creation order of the middle nodes.
func fan(k int) *topology.Network {
	net := topology.NewNetwork(sim.New())
	net.AddNode("S")
	for i := 0; i < k; i++ {
		net.AddNode(fmt.Sprintf("M%d", i))
	}
	net.AddNode("D")
	for i := k - 1; i >= 0; i-- {
		m := fmt.Sprintf("M%d", i)
		net.AddLink("S", m, fifoPipe(1e6), 1e6, 0.001)
		net.AddLink(m, "D", fifoPipe(1e6), 1e6, 0.001)
	}
	return net
}

// TestShortestPathMatchesScan holds the heap search to the O(V²) scan it
// replaced: the same (path, ok) for every pair of nodes, on random graphs,
// the 64-node chordal ring and a fan of equal routes, under both costs, with
// random links down and random ports avoided. Both costs tie often (hop
// counts on the ring, repeated rates and delays on the random graphs, every
// route of the fan), so the tie-break by node index is exercised throughout.
//
// Mutation check: ordering the heap's equal distances by higher node index
// first fails this test.
func TestShortestPathMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	costs := []Cost{CostHops, CostDelayPer(kilobit)}
	nets := []*topology.Network{chordalRing(64, 8), fan(5)}
	for i := 0; i < 12; i++ {
		nets = append(nets, randomNet(rng, 4+rng.Intn(30)))
	}
	for ni, net := range nets {
		var ports []*topology.Port
		for _, nd := range net.Nodes() {
			ports = append(ports, nd.Ports()...)
		}
		for round := 0; round < 4; round++ {
			for _, pt := range ports {
				pt.SetDown(round > 0 && rng.Intn(8) == 0)
			}
			var avoid map[*topology.Port]bool
			if round%2 == 1 {
				avoid = map[*topology.Port]bool{}
				for _, pt := range ports {
					if rng.Intn(10) == 0 {
						avoid[pt] = true
					}
				}
			}
			for ci, cost := range costs {
				g := NewGraph(net, cost)
				nodes := net.Nodes()
				for _, a := range nodes {
					for _, b := range nodes {
						got, gok := g.ShortestPath(a.Name(), b.Name(), 0, avoid)
						want, wok := scanShortestPath(g, a.Name(), b.Name(), 0, avoid)
						if gok != wok || !reflect.DeepEqual(got, want) {
							t.Fatalf("net %d, round %d, cost %d: %s -> %s = %v, %v; scan %v, %v",
								ni, round, ci, a.Name(), b.Name(), got, gok, want, wok)
						}
					}
				}
			}
		}
	}
}

// BenchmarkShortestPath times one route-cache miss on the churn workloads'
// 64-node chordal ring: a search from n1 to each node in turn. A warmed
// search allocates only the path it returns; the benchmark fails itself
// otherwise.
func BenchmarkShortestPath(b *testing.B) {
	g := NewGraph(chordalRing(64, 8), CostHops)
	dests := make([]string, 63)
	for i := range dests {
		dests[i] = fmt.Sprintf("n%d", i+2)
	}
	g.ShortestPath("n1", "n33", 0, nil) // size the frontier
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.ShortestPath("n1", dests[i%len(dests)], 0, nil); !ok {
			b.Fatal("no path on the ring")
		}
	}
	b.StopTimer()
	search := func() { g.ShortestPath("n1", "n33", 0, nil) }
	if allocs := testing.AllocsPerRun(100, search); allocs > 1 {
		b.Fatalf("a warmed search allocates %v times, want 1 (its path)", allocs)
	}
}
