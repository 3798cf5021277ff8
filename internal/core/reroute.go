package core

import (
	"fmt"
	"slices"

	"ispn/internal/packet"
	"ispn/internal/routing"
	"ispn/internal/topology"
)

// Failure-aware rerouting: the glue between the routing graph and the
// service interface. A static InstallRoute network blackholes every flow
// crossing a failed link until restore; with rerouting enabled the core
// recomputes each affected flow's path (excluding failed links), re-runs
// the paper's Section 9 admission at every hop the new path adds, moves the
// flow's reservations and warmup-ledger claims, and installs the new route.
//
// The reroute is transactional: admission and reservation checks run on the
// hops the new path adds *before* anything on the old path is released, so a
// refused reroute leaves the flow exactly as it was (still blackholing into
// the failed link, still holding its old reservations for a later restore).
// Hops shared by both paths keep their standing claim untouched — the flow
// is already counted there, by measurement and by any still-warming ledger
// entry, and §9's rule is that existing flows enter the computation through
// measurement, not by being re-declared against themselves.
//
// Refusals are genuine outcomes, not errors to hide: a guaranteed flow is
// refused when any added hop runs a pipeline that cannot reserve clock rates
// (a fifo/fifoplus/drr hop in a heterogeneous deployment) or fails the
// quota/admission test, and any flow is refused when no alternate path
// exists. Per-flow and network counters record both outcomes for reports.

// RoutingConfig configures the reroute subsystem.
type RoutingConfig struct {
	// Auto reroutes every affected flow when FailLink takes a link down.
	// Without it, RerouteAround still works on demand.
	Auto bool
	// Cost names the link cost a new path minimizes: "hops" ("" selects
	// it) or "delay" (see routing.CostByName).
	Cost string
}

func (rc RoutingConfig) normalize() (RoutingConfig, error) {
	if rc.Cost == "" {
		rc.Cost = routing.CostNameHops
	}
	if _, err := routing.CostByName(rc.Cost, nil); err != nil {
		return rc, err
	}
	return rc, nil
}

// SetRouting configures (or reconfigures) rerouting. The zero config
// disables Auto and restores the defaults. Reconfiguration drops the
// persistent routing graph (the cost function may have changed) and
// invalidates the route cache.
func (n *Network) SetRouting(rc RoutingConfig) error {
	norm, err := rc.normalize()
	if err != nil {
		return err
	}
	n.routing = norm
	n.routeGraph = nil
	n.invalidateRoutes()
	return nil
}

// SetRouteCache installs (or, with nil, removes) a destination-locality
// route cache in front of shortest-path computation. The core invalidates it
// on every event that can change a shortest path — FailLink, RestoreLink,
// SetLink, SetLinkProfile, SetRouting, new links — so cached and uncached
// runs stay byte-identical.
func (n *Network) SetRouteCache(c *routing.Cache) { n.routeCache = c }

// RouteCache returns the installed route cache, or nil.
func (n *Network) RouteCache() *routing.Cache { return n.routeCache }

// invalidateRoutes clears the route cache after a topology or routing
// change. The persistent graph needs no reset for topology events — it
// reads live Down flags and link parameters on every search.
func (n *Network) invalidateRoutes() {
	if n.routeCache != nil {
		n.routeCache.Invalidate()
	}
}

// LookupRoute returns the minimum-cost path from -> to under the active
// routing cost (nil when none exists), consulting the route cache when one
// is installed. This is the lookup scenario-driven arrivals use to resolve
// destination-addressed traffic onto paths.
func (n *Network) LookupRoute(from, to string) []string {
	cost := n.Routing().Cost
	if n.routeCache == nil {
		p, _ := n.graph().ShortestPath(from, to, n.eng.Now(), nil)
		return p
	}
	if p, ok := n.routeCache.Lookup(from, to, cost); ok {
		return p
	}
	p, _ := n.graph().ShortestPath(from, to, n.eng.Now(), nil)
	n.routeCache.Insert(from, to, cost, p)
	return p
}

// Routing returns the active routing configuration (normalized; Auto false
// when SetRouting was never called).
func (n *Network) Routing() RoutingConfig { return n.routing }

// RerouteTotals returns network-wide reroute and refusal counts.
func (n *Network) RerouteTotals() (reroutes, refusals int64) {
	return n.reroutes, n.rerouteRefusals
}

// graph returns the persistent routing view for the active cost function,
// building it on first use (SetRouting drops it, since the cost may change).
// The delay cost prices each hop with its own profile's maximum packet
// size, matching the per-port sums the bound math uses; paths are
// still computed against the live topology at call time, so the graph
// survives topology events.
func (n *Network) graph() *routing.Graph {
	if n.routeGraph != nil {
		return n.routeGraph
	}
	// normalize validated the name, so the error is nil.
	cost, _ := routing.CostByName(n.Routing().Cost, func(pt *topology.Port) int {
		return pt.Pipeline().Profile().MaxPacketBits
	})
	n.routeGraph = routing.NewGraph(n.topo, cost)
	return n.routeGraph
}

// chooser computes new paths for one reroute sweep, caching per (src, dst):
// a sweep happens at one simulated instant on a topology that does not
// change between its flows, so flows sharing endpoints reuse one Dijkstra.
type chooser struct {
	n        *Network
	shortest map[[2]string][]string // nil value = cached "no path"
}

func (n *Network) newChooser() *chooser {
	return &chooser{n: n, shortest: make(map[[2]string][]string)}
}

// pathFor picks the flow's new path — the shortest under the active cost —
// or nil.
func (c *chooser) pathFor(f *Flow) []string {
	p := f.Path()
	key := [2]string{p[0], p[len(p)-1]}
	p, ok := c.shortest[key]
	if !ok {
		p = c.n.LookupRoute(key[0], key[1])
		c.shortest[key] = p
	}
	return p
}

// portsNotIn returns the ports of list that do not appear in other,
// preserving order.
func portsNotIn(list, other []*topology.Port) []*topology.Port {
	var out []*topology.Port
	for _, pt := range list {
		if !slices.Contains(other, pt) {
			out = append(out, pt)
		}
	}
	return out
}

// rerouteFlow recomputes the shortest path of one flow under the active
// routing cost and, if the new path clears admission on every hop it adds,
// moves the flow onto it. A refusal (no path, or an added hop that cannot
// honor the flow's spec) leaves the flow untouched on its old path and is
// counted on the flow and the network. moved reports whether the flow
// actually changed path (a flow already on its best path is neither moved
// nor refused).
func (n *Network) rerouteFlow(f *Flow, ch *chooser) (moved bool, err error) {
	oldPath := f.Path()
	newPath := ch.pathFor(f)
	if newPath == nil {
		f.rerouteRefused++
		n.rerouteRefusals++
		return false, fmt.Errorf("core: flow %d: no alternate path %s -> %s", f.ID, oldPath[0], oldPath[len(oldPath)-1])
	}
	if slices.Equal(newPath, oldPath) {
		return false, nil
	}
	oldPorts := n.portsOf(f)
	newPID, err := n.InternPath(newPath)
	if err != nil {
		return false, err
	}
	newPorts := n.pathPortsByID(newPID)
	added := portsNotIn(newPorts, oldPorts)
	dropped := portsNotIn(oldPorts, newPorts)

	// Phase 1 — admit on the added hops only; nothing is released yet, so
	// a refusal leaves exactly the pre-call state.
	d := demand{class: f.Class, rate: f.gspec.ClockRate}
	if f.Class == packet.Predicted {
		d = f.pspec.demand(int(f.Priority))
	}
	token, err := n.admitAlong(added, d)
	if err != nil {
		f.rerouteRefused++
		n.rerouteRefusals++
		return false, fmt.Errorf("core: reroute flow %d via %v refused: %w", f.ID, newPath, err)
	}

	// Phase 2 — commit: move reservations and ledger claims, install the
	// route, refresh the flow's path-derived state.
	n.releaseLedger(dropped, f.ledgerTokens...)
	f.claim(token)
	if f.Class == packet.Guaranteed {
		for _, pt := range dropped {
			pt.Pipeline().RemoveGuaranteed(f.ID)
		}
		for _, pt := range added {
			pt.Pipeline().AddGuaranteed(f.ID, f.gspec.ClockRate)
		}
	}
	// Reroutes keep the flow's endpoints, so the terminal keeps its sink.
	f.PathID = newPID
	n.routeAlong(f)
	switch f.Class {
	case packet.Guaranteed:
		f.bound = n.pgBound(f.gspec, newPorts)
	case packet.Predicted:
		f.bound = n.advertisedBound(newPorts, int(f.Priority))
	}
	f.rerouted++
	n.reroutes++
	return true, nil
}

// RerouteAround reroutes every flow whose current path crosses the directed
// link from -> to, in flow-id order (deterministic whatever created the
// flows). It reports how many flows moved and how many were refused (flows
// already on their best path count as neither); the error is non-nil only
// when the link itself is unknown.
func (n *Network) RerouteAround(from, to string) (rerouted, refused int, err error) {
	pt, err := n.port(from, to)
	if err != nil {
		return 0, 0, err
	}
	r, x := n.rerouteAroundPort(pt)
	return r, x, nil
}

func (n *Network) rerouteAroundPort(pt *topology.Port) (rerouted, refused int) {
	ch := n.newChooser()
	for _, f := range n.flowsByID() {
		if !slices.Contains(n.portsOf(f), pt) {
			continue
		}
		switch moved, err := n.rerouteFlow(f, ch); {
		case err != nil:
			refused++
		case moved:
			rerouted++
		}
	}
	return rerouted, refused
}
