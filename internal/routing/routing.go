// Package routing computes paths over a topology.Network: a graph view with
// pluggable link costs, deterministic Dijkstra shortest paths, and
// k-alternate path enumeration. Failed links (Port.Down) are never part of a
// computed path, which is the whole point — the core uses this package to
// recompute routes around a failure and re-run admission along the new path.
//
// Determinism is load-bearing: experiment reports must be bit-identical
// whatever worker pool runs them, so every tie in the search breaks by node
// creation order (the same order topology.Network.Nodes returns), never by
// map iteration.
//
// The cost functions follow the classic trade-offs of dynamic routing in
// integrated-services networks: hop count (stable, load-blind), propagation
// plus transmission delay (favors fast links), and load-sensitive delay in
// the spirit of DEC-TR-506's congestion-aware link costs (avoids busy links,
// at the price of potential oscillation — which is why it is a choice, not
// the default).
package routing

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ispn/internal/topology"
)

// Cost prices one directed link (its output port) at simulated time now.
// Implementations must be positive for usable links.
type Cost func(pt *topology.Port, now float64) float64

// CostHops prices every link at 1: shortest path = fewest hops.
func CostHops(*topology.Port, float64) float64 { return 1 }

// PerPortBits resolves the packet size used in a port's transmission term,
// so heterogeneous deployments can price each hop with its own profile's
// maximum packet size.
type PerPortBits func(pt *topology.Port) int

// CostDelayPer prices a link at its fixed per-packet latency:
// store-and-forward transmission of that port's maximum-size packet plus
// propagation.
func CostDelayPer(bits PerPortBits) Cost {
	return func(pt *topology.Port, _ float64) float64 {
		return float64(bits(pt))/pt.Bandwidth() + pt.PropDelay()
	}
}

// CostLoadPer is CostDelayPer inflated by recent utilization — an
// M/M/1-style 1/(1-ρ) factor on the fixed latency, with ρ clamped below 1
// so a saturated link is very expensive but never infinitely so (it may
// still be the only way through). This is the load-sensitive cost of
// DEC-TR-506 lineage.
func CostLoadPer(bits PerPortBits) Cost {
	fixed := CostDelayPer(bits)
	return func(pt *topology.Port, now float64) float64 {
		rho := pt.Utilization(now)
		if rho > 0.95 {
			rho = 0.95
		}
		if rho < 0 {
			rho = 0
		}
		return fixed(pt, now) / (1 - rho)
	}
}

// Cost function names as the scenario grammar spells them.
const (
	CostNameHops  = "hops"
	CostNameDelay = "delay"
	CostNameLoad  = "load"
)

// CostByName resolves a named cost function; bits parameterizes the
// transmission term of the delay-based costs (a caller that only validates a
// name may pass nil).
func CostByName(name string, bits PerPortBits) (Cost, error) {
	switch name {
	case CostNameHops, "":
		return CostHops, nil
	case CostNameDelay:
		return CostDelayPer(bits), nil
	case CostNameLoad:
		return CostLoadPer(bits), nil
	}
	return nil, fmt.Errorf("routing: unknown cost %q (costs: hops, delay, load)", name)
}

// Graph is a routing view over a topology: the node index and search
// scratch are built once and reused across calls, while paths are still
// computed against the live topology (current Down flags, current
// utilization) at call time. A Graph is not safe for concurrent use — every
// caller in the simulator runs path computations on the control plane, one
// at a time.
type Graph struct {
	net  *topology.Network
	cost Cost

	// idx/nodes map node names to dense ids in creation order — the ids
	// are topology.Node.Index, so only the two endpoint names of a search
	// go through idx; rebuilt only when the topology grows
	// (len(net.Nodes()) is the staleness check — nodes are never removed).
	idx   map[string]int
	nodes []*topology.Node

	// Dijkstra scratch, sized to the node count and reused so repeated
	// path computations (reroute sweeps, cache misses) allocate nothing.
	dist []float64
	prev []int
	done []bool
}

// NewGraph builds a graph over net with the given cost (nil = CostHops).
func NewGraph(net *topology.Network, cost Cost) *Graph {
	if cost == nil {
		cost = CostHops
	}
	g := &Graph{net: net, cost: cost}
	g.rebuild()
	return g
}

// rebuild reconstructs the name index and scratch from the current topology.
func (g *Graph) rebuild() {
	nodes := g.net.Nodes()
	g.nodes = nodes
	g.idx = make(map[string]int, len(nodes))
	for i, nd := range nodes {
		g.idx[nd.Name()] = i
	}
	g.dist = make([]float64, len(nodes))
	g.prev = make([]int, len(nodes))
	g.done = make([]bool, len(nodes))
}

// index returns the node index, rebuilding it only if switches were added
// since the last call (topologies never shrink).
func (g *Graph) index() (map[string]int, []*topology.Node) {
	if nodes := g.net.Nodes(); len(nodes) != len(g.nodes) {
		g.rebuild()
	}
	return g.idx, g.nodes
}

// ShortestPath returns the minimum-cost path from -> to as node names,
// excluding failed links and any ports in avoid. The boolean is false when
// no path exists (or an endpoint is unknown). Ties break toward the
// earlier-created node, so equal-cost topologies route identically on every
// run.
func (g *Graph) ShortestPath(from, to string, now float64, avoid map[*topology.Port]bool) ([]string, bool) {
	idx, nodes := g.index()
	src, okS := idx[from]
	dst, okD := idx[to]
	if !okS || !okD {
		return nil, false
	}
	if src == dst {
		return []string{from}, true
	}
	dist, prev, done := g.dist, g.prev, g.done
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
		done[i] = false
	}
	dist[src] = 0
	// O(V^2) scan: simulated topologies are tens of nodes, and a linear
	// scan with index tie-breaks is trivially deterministic.
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

// AlternatePaths enumerates up to k loop-free paths from -> to, cheapest
// first: the shortest path, then for each of its links the shortest path
// with that link additionally excluded (the first round of Yen's algorithm —
// enough diversity to spread flows around a bottleneck without the full
// spur-node machinery). Duplicates collapse; failed links are always
// excluded. Returns nil when no path exists at all.
func (g *Graph) AlternatePaths(from, to string, k int, now float64) [][]string {
	if k < 1 {
		k = 1
	}
	best, ok := g.ShortestPath(from, to, now, nil)
	if !ok {
		return nil
	}
	type cand struct {
		path []string
		cost float64
	}
	seen := map[string]bool{pathKey(best): true}
	cands := []cand{{best, g.PathCost(best, now)}}
	ports := g.pathPorts(best)
	for _, excl := range ports {
		p, ok := g.ShortestPath(from, to, now, map[*topology.Port]bool{excl: true})
		if !ok || seen[pathKey(p)] {
			continue
		}
		seen[pathKey(p)] = true
		cands = append(cands, cand{p, g.PathCost(p, now)})
	}
	// Cheapest first; cost ties break lexicographically on the node
	// sequence so the order never depends on enumeration accidents.
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return pathKey(cands[i].path) < pathKey(cands[j].path)
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([][]string, len(cands))
	for i, c := range cands {
		out[i] = c.path
	}
	return out
}

// PathCost sums the cost of a path's links at time now.
func (g *Graph) PathCost(path []string, now float64) float64 {
	sum := 0.0
	for _, pt := range g.pathPorts(path) {
		sum += g.cost(pt, now)
	}
	return sum
}

// pathPorts resolves the output ports along a path of node names.
func (g *Graph) pathPorts(path []string) []*topology.Port {
	var ports []*topology.Port
	for i := 0; i < len(path)-1; i++ {
		nd := g.net.Node(path[i])
		if nd == nil {
			return nil
		}
		pt := nd.Port(path[i+1])
		if pt == nil {
			return nil
		}
		ports = append(ports, pt)
	}
	return ports
}

func pathKey(path []string) string {
	n := 0
	for _, s := range path {
		n += len(s) + 1
	}
	var b strings.Builder
	b.Grow(n)
	for i, s := range path {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(s)
	}
	return b.String()
}
