package core

import (
	"fmt"

	"ispn/internal/sim"
)

// PartitionSpec describes how to split the network into shards: groups of
// switches that each get their own event heap, advanced in lockstep windows
// on one goroutine (see sim.Coordinator). The partition is computed
// deterministically from the topology in node creation order, so a fixed
// spec on a fixed topology always yields the same assignment — the
// precondition for sharded runs being bit-identical to sequential ones.
type PartitionSpec struct {
	// Shards is the number of partitions (>= 1).
	Shards int
	// Together lists node pairs that must share a shard — e.g. the two
	// endpoints of a transport connection whose state machine must run on
	// one engine. Pairs are applied in order.
	Together [][2]string
}

// SetShards partitions the network into shards. Call it after the topology
// (switches and links) is built and before any flow, source or transport
// endpoint is created: those capture per-node engines.
//
// The partitioner unions nodes that cannot be separated — endpoints of
// zero-propagation-delay links (a cross-shard link needs positive delay to
// serve as conservative lookahead) and explicit Together pairs — then
// assigns the resulting components greedily to the least-loaded shard,
// walking components in node-creation order. The assignment, and therefore
// the simulation result, is a pure function of topology and spec.
//
// After SetShards, Run advances the simulation through a sim.Coordinator
// (even with one shard, so a one-shard run measures the same machinery),
// and the network's Engine() becomes the control engine on which dynamic
// verbs (fail/restore/reroute/renegotiate), churn and trace sampling
// execute between shard windows.
func (n *Network) SetShards(spec PartitionSpec) error {
	if n.coord != nil {
		return fmt.Errorf("core: network is already sharded")
	}
	if spec.Shards < 1 {
		return fmt.Errorf("core: need at least 1 shard, got %d", spec.Shards)
	}
	if len(n.flows) > 0 {
		return fmt.Errorf("core: SetShards must precede flow creation (%d flows exist)", len(n.flows))
	}
	if n.eng.Now() > 0 || n.eng.Pending() > 0 {
		return fmt.Errorf("core: SetShards must precede any scheduling on the engine")
	}
	nodes := n.topo.Nodes()
	if len(nodes) == 0 {
		return fmt.Errorf("core: SetShards needs a built topology")
	}
	index := make(map[string]int, len(nodes))
	for i, nd := range nodes {
		index[nd.Name()] = i
	}

	// Union-find over inseparable nodes.
	parent := make([]int, len(nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			// Smaller root wins, so a component's representative is its
			// earliest-created node.
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for _, pt := range n.topo.Ports() {
		if pt.PropDelay() <= 0 {
			union(index[pt.From().Name()], index[pt.To().Name()])
		}
	}
	for _, pair := range spec.Together {
		a, ok := index[pair[0]]
		if !ok {
			return fmt.Errorf("core: Together references unknown switch %q", pair[0])
		}
		b, ok := index[pair[1]]
		if !ok {
			return fmt.Errorf("core: Together references unknown switch %q", pair[1])
		}
		union(a, b)
	}

	// Pack components greedily onto the least-loaded shard, in creation
	// order of each component's earliest node (= its root, by the union
	// rule above).
	var roots []int
	compSize := make(map[int]int)
	for i := range nodes {
		r := find(i)
		if compSize[r] == 0 {
			roots = append(roots, r)
		}
		compSize[r]++
	}
	load := make([]int, spec.Shards)
	compShard := make(map[int]int, len(roots))
	for _, r := range roots {
		best := 0
		for s := 1; s < spec.Shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		compShard[r] = best
		load[best] += compSize[r]
	}
	assign := make([]int, len(nodes))
	for i := range nodes {
		assign[i] = compShard[find(i)]
	}

	if err := n.topo.ConfigureShards(assign, spec.Shards); err != nil {
		return err
	}
	engines := make([]*sim.Engine, spec.Shards)
	for i, sh := range n.topo.Shards() {
		engines[i] = sh.Engine()
	}
	n.coord = sim.NewCoordinator(n.eng, engines, n.topo.Lookahead())
	return nil
}
