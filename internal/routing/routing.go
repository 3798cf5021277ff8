// Package routing computes paths over a topology.Network: a graph view with
// pluggable link costs and deterministic Dijkstra shortest paths. Failed
// links (Port.Down) are never part of a computed path, which is the whole
// point — the core uses this package to recompute routes around a failure
// and re-run admission along the new path.
//
// Determinism is load-bearing: experiment reports must be bit-identical
// whatever worker pool runs them, so every tie in the search breaks by node
// creation order (the same order topology.Network.Nodes returns), never by
// map iteration.
//
// Both cost functions are load-blind: hop count, and propagation plus
// transmission delay (favors fast links). A path changes only when the
// topology or its link parameters do, which is what lets the route cache
// invalidate on events alone.
package routing

import (
	"fmt"
	"math"

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

// Cost function names as the scenario grammar spells them.
const (
	CostNameHops  = "hops"
	CostNameDelay = "delay"
)

// CostByName resolves a named cost function; bits parameterizes the
// transmission term of the delay cost (a caller that only validates a name
// may pass nil).
func CostByName(name string, bits PerPortBits) (Cost, error) {
	switch name {
	case CostNameHops, "":
		return CostHops, nil
	case CostNameDelay:
		return CostDelayPer(bits), nil
	}
	return nil, fmt.Errorf("routing: unknown cost %q (costs: hops, delay)", name)
}

// Graph is a routing view over a topology: the node index and search
// scratch are built once and reused across calls, while paths are still
// computed against the live topology (current Down flags, rates and delays)
// at call time. A Graph is not safe for concurrent use — every
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

	// Dijkstra scratch, reused so repeated path computations (reroute
	// sweeps, cache misses) allocate only the path they return: dist,
	// prev and done are sized to the node count, the frontier grows to
	// the largest search's pushes.
	dist     []float64
	prev     []int
	done     []bool
	frontier []frontierEntry
}

// frontierEntry is a node pushed onto the search frontier at distance dist.
// A node is pushed again each time its distance drops; the stale, larger
// entries are skipped when they surface (lazy deletion).
type frontierEntry struct {
	dist float64
	node int
}

// before orders the frontier: lower distance first, then lower node index —
// the node a linear scan for the minimum with a strict < would pick.
func (a frontierEntry) before(b frontierEntry) bool {
	return a.dist < b.dist || a.dist == b.dist && a.node < b.node
}

// push adds e to the binary min-heap h.
func push(h []frontierEntry, e frontierEntry) []frontierEntry {
	h = append(h, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// pop removes and returns the minimum of the non-empty binary min-heap h.
func pop(h []frontierEntry) (frontierEntry, []frontierEntry) {
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && h[l].before(h[m]) {
			m = l
		}
		if r := 2*i + 2; r < n && h[r].before(h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top, h
}

// NewGraph builds a graph over net with the given cost.
func NewGraph(net *topology.Network, cost Cost) *Graph {
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
	// Binary-heap Dijkstra, O(E log V). The heap yields the unsettled node
	// of lowest (distance, index), and relaxation keeps the first
	// predecessor to reach the lowest distance, so ties break by creation
	// order and every path is reproducible.
	h := push(g.frontier[:0], frontierEntry{0, src})
	for len(h) > 0 {
		var top frontierEntry
		top, h = pop(h)
		u := top.node
		if done[u] {
			continue // a stale entry: u settled at a lower distance
		}
		if u == dst {
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
				h = push(h, frontierEntry{d, v})
			}
		}
	}
	g.frontier = h
	if math.IsInf(dist[dst], 1) {
		return nil, false
	}
	n := 0
	for v := dst; v >= 0; v = prev[v] {
		n++
	}
	path := make([]string, n)
	for v := dst; v >= 0; v = prev[v] {
		n--
		path[n] = nodes[v].Name()
	}
	return path, true
}
