package core

import (
	"fmt"

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

// Routing policies: how a new path is chosen among candidates.
const (
	// PolicyShortest always takes the minimum-cost path.
	PolicyShortest = "shortest"
	// PolicySpread enumerates up to RoutingConfig.Paths alternates and
	// assigns flows to them round-robin by flow id, spreading rerouted
	// load instead of stampeding the single shortest detour.
	PolicySpread = "spread"
)

// RoutingConfig configures the reroute subsystem.
type RoutingConfig struct {
	// Auto reroutes every affected flow when FailLink takes a link down.
	// Without it, RerouteFlow/RerouteAround still work on demand.
	Auto bool
	// Policy is PolicyShortest ("" selects it) or PolicySpread.
	Policy string
	// Cost names the link cost: "hops" ("" selects it), "delay", or
	// "load" (see routing.CostByName).
	Cost string
	// Paths bounds the alternates PolicySpread considers (0 = 4).
	Paths int
}

func (rc RoutingConfig) normalize() (RoutingConfig, error) {
	if rc.Policy == "" {
		rc.Policy = PolicyShortest
	}
	if rc.Policy != PolicyShortest && rc.Policy != PolicySpread {
		return rc, fmt.Errorf("core: unknown routing policy %q (policies: shortest, spread)", rc.Policy)
	}
	if rc.Cost == "" {
		rc.Cost = routing.CostNameHops
	}
	if _, err := routing.CostByName(rc.Cost, nil); err != nil {
		return rc, err
	}
	if rc.Paths == 0 {
		rc.Paths = 4
	}
	if rc.Paths < 1 {
		return rc, fmt.Errorf("core: routing paths must be positive, got %d", rc.Paths)
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
	n.routingSet = true
	n.routeGraph = nil
	n.invalidateRoutes()
	return nil
}

// SetRouteCache installs (or, with nil, removes) a destination-locality
// route cache in front of shortest-path computation. The core invalidates it
// on every event that can change a shortest path — FailLink, RestoreLink,
// SetLink, SetLinkProfile, SetRouting, new links — so cached and uncached
// runs stay byte-identical. Load-cost lookups bypass the cache: that cost
// moves with traffic, not with events.
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
	if n.routeCache == nil || cost == routing.CostNameLoad {
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
func (n *Network) Routing() RoutingConfig {
	if !n.routingSet {
		rc, _ := RoutingConfig{}.normalize()
		return rc
	}
	return n.routing
}

// RerouteTotals returns network-wide reroute and refusal counts.
func (n *Network) RerouteTotals() (reroutes, refusals int64) {
	return n.reroutes, n.rerouteRefusals
}

// graph returns the persistent routing view for the active cost function,
// building it on first use (SetRouting drops it, since the cost may change).
// The delay and load costs price each hop with its own profile's maximum
// packet size, matching the per-port sums the bound math uses; paths are
// still computed against the live topology at call time, so the graph
// survives topology events.
func (n *Network) graph() *routing.Graph {
	if n.routeGraph != nil {
		return n.routeGraph
	}
	// normalize validated the name, so the error is nil.
	cost, _ := routing.CostByName(n.Routing().Cost, func(pt *topology.Port) int {
		return n.profs[pt.Index()].MaxPacketBits
	})
	n.routeGraph = routing.NewGraph(n.topo, cost)
	return n.routeGraph
}

// chooser computes new paths for one reroute sweep, caching per (src, dst):
// a sweep happens at one simulated instant on a topology that does not
// change between its flows, so flows sharing endpoints reuse one Dijkstra
// (spread: one alternates enumeration, still picking per flow id).
type chooser struct {
	n        *Network
	g        *routing.Graph
	now      float64
	shortest map[[2]string][]string   // nil value = cached "no path"
	alts     map[[2]string][][]string // nil value = cached "no path"
}

func (n *Network) newChooser() *chooser {
	return &chooser{
		n:        n,
		g:        n.graph(),
		now:      n.eng.Now(),
		shortest: make(map[[2]string][]string),
		alts:     make(map[[2]string][][]string),
	}
}

// pathFor picks the flow's new path under the active policy, or nil.
func (c *chooser) pathFor(f *Flow) []string {
	p := f.Path()
	key := [2]string{p[0], p[len(p)-1]}
	if c.n.Routing().Policy == PolicySpread {
		alts, ok := c.alts[key]
		if !ok {
			alts = c.g.AlternatePaths(key[0], key[1], c.n.Routing().Paths, c.now)
			c.alts[key] = alts
		}
		if len(alts) == 0 {
			return nil
		}
		return alts[int(f.ID)%len(alts)]
	}
	p, ok := c.shortest[key]
	if !ok {
		p = c.n.LookupRoute(key[0], key[1])
		c.shortest[key] = p
	}
	return p
}

func samePath(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// portsNotIn returns the ports of list that do not appear in other,
// preserving order.
func portsNotIn(list, other []*topology.Port) []*topology.Port {
	in := make(map[int]bool, len(other))
	for _, pt := range other {
		in[pt.Index()] = true
	}
	var out []*topology.Port
	for _, pt := range list {
		if !in[pt.Index()] {
			out = append(out, pt)
		}
	}
	return out
}

// RerouteFlow recomputes the path of one flow under the active routing
// policy and, if the new path clears admission on every hop it adds, moves
// the flow onto it. A refusal (no path, or an added hop that cannot honor
// the flow's spec) leaves the flow untouched on its old path and is counted
// on the flow and the network. Rerouting a flow onto its current path is a
// no-op counted as neither.
func (n *Network) RerouteFlow(id uint32) error {
	f, ok := n.flows[id]
	if !ok {
		return fmt.Errorf("core: flow %d does not exist", id)
	}
	_, err := n.rerouteFlow(f, n.newChooser())
	return err
}

// rerouteFlow attempts one reroute; moved reports whether the flow actually
// changed path (a flow already on its best path is neither moved nor
// refused).
func (n *Network) rerouteFlow(f *Flow, ch *chooser) (moved bool, err error) {
	oldPath := f.Path()
	newPath := ch.pathFor(f)
	if newPath == nil {
		f.rerouteRefused++
		n.rerouteRefusals++
		return false, fmt.Errorf("core: flow %d: no alternate path %s -> %s", f.ID, oldPath[0], oldPath[len(oldPath)-1])
	}
	if samePath(newPath, oldPath) {
		return false, nil
	}
	oldPorts := n.portsOf(f)
	newPID := n.InternPath(newPath)
	newPorts := n.pathPortsByID(newPID)
	added := portsNotIn(newPorts, oldPorts)
	dropped := portsNotIn(oldPorts, newPorts)

	// Phase 1 — admit on the added hops only; nothing is released yet, so
	// a refusal rolls back to exactly the pre-call state.
	token := n.nextLedgerToken()
	refuse := func(committed []*topology.Port, cause error) (bool, error) {
		n.rollbackLedger(committed, token)
		f.rerouteRefused++
		n.rerouteRefusals++
		return false, fmt.Errorf("core: reroute flow %d via %v refused: %w", f.ID, newPath, cause)
	}
	switch f.Class {
	case packet.Guaranteed:
		for i, pt := range added {
			if err := n.checkReserve(pt, f.gspec.ClockRate); err != nil {
				return refuse(added[:i], err)
			}
			if n.cfg.AdmissionControl {
				if err := n.admitGuaranteed(pt, f.gspec.ClockRate, token); err != nil {
					return refuse(added[:i], err)
				}
			}
		}
	case packet.Predicted:
		if n.cfg.AdmissionControl {
			for i, pt := range added {
				if err := n.admitPredicted(pt, f.pspec, int(f.Priority), token); err != nil {
					return refuse(added[:i], err)
				}
			}
		}
	}

	// Phase 2 — commit: move reservations and ledger claims, install the
	// route, refresh the flow's path-derived state.
	if f.Class != packet.Datagram && n.cfg.AdmissionControl {
		n.releaseLedger(dropped, f.ledgerTokens)
		f.ledgerTokens = append(f.ledgerTokens, token)
	}
	if f.Class == packet.Guaranteed {
		for _, pt := range dropped {
			n.pipe(pt).RemoveGuaranteed(f.ID)
		}
		for _, pt := range added {
			n.pipe(pt).AddGuaranteed(f.ID, f.gspec.ClockRate)
		}
	}
	// Reroutes keep the flow's endpoints, so under sharding the ingress
	// engine is unchanged, and the terminal keeps its sink.
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
		crosses := false
		for _, fp := range n.portsOf(f) {
			if fp == pt {
				crosses = true
				break
			}
		}
		if !crosses {
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
