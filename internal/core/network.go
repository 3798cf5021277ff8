package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"ispn/internal/admission"
	"ispn/internal/packet"
	"ispn/internal/routing"
	"ispn/internal/sched"
	"ispn/internal/sim"
	"ispn/internal/stats"
	"ispn/internal/tokenbucket"
	"ispn/internal/topology"
)

// Config parameterizes an ISPN network. A zero field selects the paper's
// default. LinkRate has no "explicitly zero": a zero-rate link is
// meaningless, and a negative rate panics rather than being replaced.
type Config struct {
	// LinkRate is the inter-switch link bandwidth in bits/second
	// (paper: 1 Mbit/s). 0 selects the default; negative values panic.
	LinkRate float64
	// BufferPackets is the per-port buffer (paper: 200).
	BufferPackets int
	// PropDelay is the per-link propagation delay (paper: effectively 0).
	PropDelay float64
	// AdmissionControl enables the Section 9 measurement-based admission
	// test on Request* calls. When false, requests are only checked
	// against the hard 90% reservation quota.
	AdmissionControl bool
	// Seed drives all randomness derived from this network.
	Seed int64
	// Profile is the default per-port scheduling profile: every link
	// created without one of its own runs the pipeline it describes, and
	// ConnectWith can override it per link (heterogeneous deployments).
	// sched.Profile.Normalize says what each zero field means; New
	// normalizes and validates it once.
	sched.Profile
}

// Network is an ISPN: a topology whose every output port holds a scheduling
// pipeline built from a per-port profile (the config's profile by default),
// plus the bookkeeping that turns service requests into reservations,
// enforcement and measurement. Per-port admission state is held in a dense
// slice indexed by topology.Port.Index, so no map iteration order can leak
// into results.
type Network struct {
	cfg   Config
	eng   *sim.Engine
	topo  *topology.Network
	admit []*admission.Controller // port index -> controller (nil until used)
	flows map[uint32]*Flow
	// ledgerSeq numbers admission operations; each one tags its warmup-
	// ledger entries with one token, so releases touch exactly the entries
	// that operation created (see admitAlong).
	ledgerSeq uint64

	// Failure-aware rerouting (see reroute.go): the normalized config, and
	// successful reroutes and refusals totalled across all flows.
	routing         RoutingConfig
	reroutes        int64
	rerouteRefusals int64

	// flowHooks observe every flow as it is registered (admission already
	// passed), in the order they were added. The invariant oracle attaches
	// here.
	flowHooks []func(*Flow)

	// intern stores every distinct path once; flows hold PathIDs into it
	// (see intern.go).
	intern pathTable

	// Predicted-flow aggregation state (see aggregate.go) and the
	// destination-locality route cache (see routecache wiring in
	// reroute.go); both nil/empty until used.
	aggs       [][]*Aggregate // by PathID, then class; nil where none is live
	aggOrder   []*Aggregate
	routeCache *routing.Cache
	routeGraph *routing.Graph // persistent graph for the active cost
	carrierSeq uint32
}

// New creates an empty ISPN. It panics on a negative LinkRate or an
// unbuildable Profile: programmatic construction treats them as bugs.
func New(cfg Config) *Network {
	if cfg.LinkRate < 0 {
		panic(fmt.Sprintf("core: LinkRate must be positive, got %v", cfg.LinkRate))
	}
	if cfg.LinkRate == 0 {
		cfg.LinkRate = 1e6
	}
	if cfg.BufferPackets == 0 {
		cfg.BufferPackets = topology.DefaultBufferPackets
	}
	cfg.Profile = cfg.Profile.Normalize()
	if err := cfg.Profile.Validate(); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	rc, _ := RoutingConfig{}.normalize()
	eng := sim.New()
	return &Network{
		cfg:     cfg,
		eng:     eng,
		topo:    topology.NewNetwork(eng),
		flows:   make(map[uint32]*Flow),
		routing: rc,
	}
}

// Engine exposes the simulation engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Pool exposes the network's one packet free list (see packet.Pool for the
// ownership rules). Attach it to sources so steady-state runs allocate no
// packets.
func (n *Network) Pool() *packet.Pool { return n.topo.Pool() }

// Topology exposes the underlying topology.
func (n *Network) Topology() *topology.Network { return n.topo }

// Config returns the network configuration (defaults filled; its Profile
// is what links get when ConnectWith is given none).
func (n *Network) Config() Config { return n.cfg }

// AddSwitch adds a switch.
func (n *Network) AddSwitch(name string) { n.topo.AddNode(name) }

// Connect adds a unidirectional link from -> to running the default
// pipeline, at the network-wide default bandwidth and propagation delay. It
// panics on the errors ConnectWith diagnoses (programmatic topology
// construction treats them as bugs; scenario files go through ConnectWith
// and get a file:line:col diagnostic instead).
func (n *Network) Connect(from, to string) *topology.Port {
	pt, err := n.ConnectWith(from, to, n.cfg.LinkRate, n.cfg.PropDelay, nil)
	if err != nil {
		panic(err)
	}
	return pt
}

// ConnectWith adds a unidirectional link from -> to with an explicit
// bandwidth (bits/s), propagation delay (seconds), and — the unit of
// heterogeneous deployment — an optional per-link scheduling profile. A nil
// profile selects the network default (the config); a non-nil profile is
// normalized and built through the sched pipeline registry, so a scenario
// can put plain WFQ on a WAN core link and the full unified scheduler on the
// edges. It rejects unknown switches, duplicate links, a non-positive rate,
// a negative delay, and an unbuildable profile with a diagnostic error
// rather than overwriting or misbehaving.
func (n *Network) ConnectWith(from, to string, rate, propDelay float64, prof *sched.Profile) (*topology.Port, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("core: link %s->%s rate must be positive, got %v bits/s", from, to, rate)
	}
	if propDelay < 0 {
		return nil, fmt.Errorf("core: link %s->%s propagation delay must be non-negative, got %vs", from, to, propDelay)
	}
	src := n.topo.Node(from)
	if src == nil {
		return nil, fmt.Errorf("core: link %s->%s references unknown switch %q", from, to, from)
	}
	if n.topo.Node(to) == nil {
		return nil, fmt.Errorf("core: link %s->%s references unknown switch %q", from, to, to)
	}
	if src.Port(to) != nil {
		return nil, fmt.Errorf("core: duplicate link %s->%s", from, to)
	}
	effective := n.cfg.Profile
	if prof != nil {
		effective = *prof
	}
	pipe, err := sched.NewPipeline(effective, rate)
	if err != nil {
		return nil, fmt.Errorf("core: link %s->%s: %v", from, to, err)
	}
	// The dense per-port slice is indexed by Port.Index, which counts
	// every AddLink on the topology — links added behind the network's
	// back would silently shift the correspondence.
	if n.topo.NumPorts() != len(n.admit) {
		panic("core: topology ports were added outside ConnectWith; per-port state is indexed by creation order")
	}
	port := n.topo.AddLink(from, to, pipe, rate, propDelay)
	port.SetBufferLimit(n.cfg.BufferPackets)
	n.admit = append(n.admit, nil)
	n.invalidateRoutes() // a new link may shorten cached routes
	return port, nil
}

// LinkProfile returns the effective profile of the link from -> to.
func (n *Network) LinkProfile(from, to string) (sched.Profile, error) {
	pt, err := n.port(from, to)
	if err != nil {
		return sched.Profile{}, err
	}
	return pt.Pipeline().Profile(), nil
}

// port resolves a directed link, or reports it unknown.
func (n *Network) port(from, to string) (*topology.Port, error) {
	if nd := n.topo.Node(from); nd != nil {
		if pt := nd.Port(to); pt != nil {
			return pt, nil
		}
	}
	return nil, fmt.Errorf("core: no link %s->%s", from, to)
}

// SetLink changes a link's bandwidth mid-run; its propagation delay is fixed
// when the link is created. The new rate must exceed the link's guaranteed
// reservations; the packet currently being serialized finishes at the old
// rate. Note that per-flow queueing-delay normalization uses the rates seen
// at flow setup, so delay reports of flows that straddle a rate change are
// measured against their setup-time fixed delay.
func (n *Network) SetLink(from, to string, rate float64) error {
	pt, err := n.port(from, to)
	if err != nil {
		return err
	}
	if rate <= 0 {
		return fmt.Errorf("core: link %s->%s rate must be positive, got %v", from, to, rate)
	}
	if res := pt.Pipeline().Reserved(); rate <= res {
		return fmt.Errorf("core: link %s->%s rate %v bits/s does not cover %v bits/s of guaranteed reservations",
			from, to, rate, res)
	}
	pt.SetBandwidth(rate)
	if c := n.admit[pt.Index()]; c != nil {
		c.SetLinkRate(rate)
	}
	n.invalidateRoutes() // the rate feeds the delay cost
	return nil
}

// SetLinkProfile rebuilds the scheduling pipeline of link from -> to around
// a new profile mid-run — an incremental deployment event (a hop upgraded
// from FIFO to FIFO+, a core link switched to plain WFQ). Guaranteed
// reservations carry over: the new profile must support them and its
// datagram quota must still leave room, otherwise the swap is refused and
// the old pipeline stays. The queued backlog migrates into the new pipeline
// in the old one's service order; the admission controller (if any) adopts
// the new quota and class targets but keeps its utilization measurement —
// the traffic did not change, the discipline did.
func (n *Network) SetLinkProfile(from, to string, prof sched.Profile) error {
	pt, err := n.port(from, to)
	if err != nil {
		return err
	}
	pipe, err := sched.NewPipeline(prof, pt.Bandwidth())
	if err != nil {
		return fmt.Errorf("core: link %s->%s: %v", from, to, err)
	}
	prof = pipe.Profile()
	if res := pt.Pipeline().Reserved(); res > 0 {
		if !pipe.SupportsGuaranteed() {
			return fmt.Errorf("core: link %s->%s carries %v bits/s of guaranteed reservations; a %s pipeline cannot honor them",
				from, to, res, prof.Kind)
		}
		if res > (1-prof.Quota())*pt.Bandwidth() {
			return fmt.Errorf("core: link %s->%s: new profile's datagram quota %v does not cover %v bits/s of reservations",
				from, to, prof.Quota(), res)
		}
	}
	// Re-register live guaranteed flows crossing this port, in flow-id
	// order (the flows map must not dictate any ordering).
	if pipe.SupportsGuaranteed() {
		for _, f := range n.flowsByID() {
			if f.Class != packet.Guaranteed {
				continue
			}
			if slices.Contains(n.portsOf(f), pt) {
				pipe.AddGuaranteed(f.ID, f.gspec.ClockRate)
			}
		}
	}
	pt.SetPipeline(pipe)
	if c := n.admit[pt.Index()]; c != nil {
		c.SetQuota(1 - prof.Quota())
		c.SetClassTargets(prof.ClassTargets)
	}
	n.invalidateRoutes() // the profile's max packet size feeds the delay cost
	return nil
}

// flowsByID returns the live flows sorted by id (deterministic iteration
// over the flows map).
func (n *Network) flowsByID() []*Flow {
	out := make([]*Flow, 0, len(n.flows))
	for _, id := range slices.Sorted(maps.Keys(n.flows)) {
		out = append(out, n.flows[id])
	}
	return out
}

// FailLink takes a link down: its queued backlog (including packets a
// non-work-conserving scheduler was holding) and all subsequent arrivals
// are dropped (counted as buffer drops) until RestoreLink. With automatic
// rerouting enabled (SetRouting Auto), every flow crossing the link is then
// rerouted around it — or refused and left blackholing, with the refusal
// counted on the flow.
func (n *Network) FailLink(from, to string) error {
	pt, err := n.port(from, to)
	if err != nil {
		return err
	}
	pt.SetDown(true)
	// Any cached route may cross the failed link; clear before the reroute
	// sweep so detours are computed fresh.
	n.invalidateRoutes()
	if n.routing.Auto {
		n.rerouteAroundPort(pt)
	}
	return nil
}

// RestoreLink brings a failed link back with its configured rate and delay.
// Rerouted flows stay on their detours — the subsystem reacts to failures,
// it does not re-optimize on recovery (RerouteAround a link of the detour
// moves its flows back explicitly).
func (n *Network) RestoreLink(from, to string) error {
	pt, err := n.port(from, to)
	if err != nil {
		return err
	}
	pt.SetDown(false)
	n.invalidateRoutes() // the restored link may shorten cached routes
	return nil
}

// ConnectDuplex adds links in both directions (the reverse direction
// typically carries only TCP ACKs in the paper's experiments).
func (n *Network) ConnectDuplex(a, b string) {
	n.Connect(a, b)
	n.Connect(b, a)
}

// Run advances the simulation by d seconds.
func (n *Network) Run(d float64) { n.eng.RunUntil(n.eng.Now() + d) }

// Flow is an admitted flow: its route is installed, reservations (if
// guaranteed) are in place, edge policing (if predicted) is armed, and a
// meter records end-to-end queueing delays at the sink.
//
// A call is one allocation: the Flow holds its policer, its meter, its first
// ledger token and its route (hop storage included) by value, and is itself
// the receiver at its sink, so admitting a flow costs the struct and nothing
// else. The hop sequence lives once in the network's intern table (PathID
// names it). Packets carry the route, a pointer into the Flow, so a released
// flow stays alive exactly until its last packet in flight is delivered.
type Flow struct {
	ID       uint32
	PathID   PathID
	Class    packet.Class
	Priority uint8
	policed  bool // predicted flows police at the edge; carriers police per member

	net        *Network
	ingress    *topology.Node // resolved first switch, per-packet fast path
	fixedDelay float64
	policer    tokenbucket.Bucket
	policerCnt stats.Counter
	meter      stats.Recorder
	meterTo    *stats.Recorder // where deliveries are metered: &meter, or MeterInto's recorder
	delivered  int64
	taps       []func(p *packet.Packet, queueing float64) // delivery observers, in Tap order
	bound      float64
	// declaredRate is the flow's current declared rate (guaranteed clock
	// rate or predicted token rate). ledgerTokens lists the admission
	// operations (initial request, renegotiations, reroutes) whose warmup-
	// ledger entries belong to this flow (see claim); the first is stored
	// in firstToken.
	declaredRate float64
	ledgerTokens []uint64
	firstToken   [1]uint64
	pspec        PredictedSpec // predicted flows: the spec a reroute re-admits
	gspec        GuaranteedSpec

	// rerouted counts successful path moves; rerouteRefused counts
	// reroute attempts the new path's admission turned down (the flow
	// kept its old path and reservations).
	rerouted       int64
	rerouteRefused int64

	route topology.Route // forwarding state, stamped into every packet (never copied: it points into itself)
}

// Path returns the flow's hop sequence — the interned slice, shared by
// every flow on this route. Callers must not mutate it.
func (f *Flow) Path() []string { return f.net.intern.paths[f.PathID] }

// Hops returns the number of inter-switch links on the flow's path.
func (f *Flow) Hops() int { return len(f.Path()) - 1 }

// Bound returns the a priori delay bound advertised to this flow: the
// Parekh-Gallager bound for guaranteed flows, the sum of per-switch class
// targets for predicted flows, and +Inf for datagram flows.
func (f *Flow) Bound() float64 { return f.bound }

// Meter returns the recorder of end-to-end queueing delays (seconds). It
// stays empty for a flow whose delays MeterInto sends elsewhere.
func (f *Flow) Meter() *stats.Recorder { return &f.meter }

// MeterInto sends the queueing delays of the flow's deliveries from now on to
// m instead of its own Meter — a caller that keeps the delays beyond the
// flow's life (a churn call's row) does so without keeping the Flow.
func (f *Flow) MeterInto(m *stats.Recorder) { f.meterTo = m }

// Delivered returns packets delivered to the sink.
func (f *Flow) Delivered() int64 { return f.delivered }

// DeclaredRate returns the flow's current declared rate: the guaranteed
// clock rate, the predicted token rate, or — for an aggregation carrier —
// the sum of its members' token rates. Datagram flows declare 0.
func (f *Flow) DeclaredRate() float64 { return f.declaredRate }

// PolicerStats returns edge-enforcement counts (predicted flows only).
func (f *Flow) PolicerStats() stats.Counter { return f.policerCnt }

// Rerouted returns how many times the flow moved to a new path.
func (f *Flow) Rerouted() int64 { return f.rerouted }

// RerouteRefused returns how many reroute attempts were refused (no
// alternate path, or an added hop that could not honor the flow's spec).
func (f *Flow) RerouteRefused() int64 { return f.rerouteRefused }

// GuaranteedSpec returns the current spec of a guaranteed flow (zero value
// otherwise); renegotiation merges partial updates into it.
func (f *Flow) GuaranteedSpec() GuaranteedSpec { return f.gspec }

// Tap adds a callback invoked at the sink with each delivered packet and its
// end-to-end queueing delay (adaptive playback clients, trace series and the
// invariant oracle hook here). Callbacks run in the order they were added and
// must not retain the packet.
func (f *Flow) Tap(fn func(p *packet.Packet, queueing float64)) { f.taps = append(f.taps, fn) }

// IngressEngine returns the network's engine. Only bench/million.go:139
// calls it; it goes when bench/ is rewritten (ROADMAP item 7).
func (f *Flow) IngressEngine() *sim.Engine { return f.net.eng }

// IngressPool returns the packet free list the flow's sources should draw
// from (the network's one pool).
func (f *Flow) IngressPool() *packet.Pool { return f.net.Pool() }

// Inject polices (predicted service), stamps service fields and injects the
// packet at the flow's first switch. It reports whether the packet entered
// the network. Sources use this as their Inject target.
func (f *Flow) Inject(p *packet.Packet) bool {
	now := f.net.eng.Now()
	if f.policed {
		f.policerCnt.Total++
		if !f.policer.Take(now, float64(p.Size)) {
			// The paper drops or tags nonconforming packets at the
			// first switch; we drop (and recycle).
			f.policerCnt.Dropped++
			packet.Release(p)
			return false
		}
	}
	p.FlowID = f.ID
	p.Class = f.Class
	p.Priority = f.Priority
	p.Route = &f.route
	f.ingress.Inject(p)
	return true
}

// flowSink is a Flow as the topology.Receiver at its last switch.
type flowSink Flow

// Deliver meters a packet that reached the flow's last switch and runs the
// taps.
func (s *flowSink) Deliver(p *packet.Packet) {
	f := (*Flow)(s)
	q := f.net.eng.Now() - p.CreatedAt - f.fixedDelay
	if q < 0 {
		q = 0
	}
	f.meterTo.Add(q)
	f.delivered++
	for _, tap := range f.taps {
		tap(p, q)
	}
}

// routeAlong installs (or, for a reroute, moves) the flow's route along its
// interned path and refreshes the state derived from it, returning the
// path's last switch.
func (n *Network) routeAlong(f *Flow) (last *topology.Node) {
	ports := n.portsOf(f)
	if len(ports) > 0 {
		f.ingress, last = ports[0].From(), ports[len(ports)-1].To()
	} else {
		f.ingress = n.topo.Node(f.Path()[0])
		last = f.ingress
	}
	n.topo.InstallRouteAlong(&f.route, f.ID, f.ingress, ports)
	f.fixedDelay = topology.FixedDelayAlong(ports, n.cfg.MaxPacketBits)
	return last
}

func (n *Network) registerFlow(f *Flow) {
	f.meterTo = &f.meter
	last := n.routeAlong(f)
	f.route.SetReceiver(last, (*flowSink)(f))
	n.flows[f.ID] = f
	for _, hook := range n.flowHooks {
		hook(f)
	}
}

// OnFlow adds an observer called with every flow at registration time
// (after admission, before any packet flows). The invariant oracle uses it
// to arm per-flow delivery checks; flows that already exist are not
// replayed, so attach observers before creating flows.
func (n *Network) OnFlow(fn func(*Flow)) { n.flowHooks = append(n.flowHooks, fn) }

// Flows returns the live flows sorted by id — a deterministic snapshot for
// sweeps and checkers (the internal map must never dictate an order).
func (n *Network) Flows() []*Flow { return n.flowsByID() }

// Flow returns an admitted flow by id, or nil.
func (n *Network) Flow(id uint32) *Flow { return n.flows[id] }

// advertisedBound is the a priori bound quoted to a predicted flow of the
// given class over a path: the sum of the per-switch class targets
// Dᵢ along the path (Section 7: "the network should not attempt to
// characterize or control the service to great precision, and thus should
// just use the sum of the Dᵢ's as the advertised bound"). With per-port
// profiles each hop contributes its own target; a hop with fewer classes
// contributes its lowest-priority target (the same clamp its classifier
// applies to the packet header).
func (n *Network) advertisedBound(ports []*topology.Port, class int) float64 {
	bound := 0.0
	for _, pt := range ports {
		bound += pt.Pipeline().Profile().TargetFor(class)
	}
	return bound
}

// pathClasses returns the number of explicitly addressable predicted
// classes over a path: the maximum class count among its hops (hops with
// fewer classes clamp, they do not forbid).
func (n *Network) pathClasses(ports []*topology.Port) int {
	k := 0
	for _, pt := range ports {
		if c := pt.Pipeline().Classes(); c > k {
			k = c
		}
	}
	return k
}

// pgBound is the Parekh–Gallager bound for a guaranteed flow over the given
// ports, with each hop after the first contributing its own maximum packet
// size to the packetization term: D = b/r + (Σ_{k≥2} Lmaxₖ)/r.
func (n *Network) pgBound(spec GuaranteedSpec, ports []*topology.Port) float64 {
	sumL := 0.0
	for i := 1; i < len(ports); i++ {
		sumL += float64(ports[i].Pipeline().Profile().MaxPacketBits)
	}
	return spec.BucketBits/spec.ClockRate + sumL/spec.ClockRate
}

// reserveLimit is the clock-rate capacity of a port: its bandwidth minus
// the datagram quota of its profile.
func (n *Network) reserveLimit(pt *topology.Port) float64 {
	return (1 - pt.Pipeline().Profile().Quota()) * pt.Bandwidth()
}

// checkReserve verifies that adding rate to a port's reservations respects
// its datagram quota and leaves flow 0 alive (with a zero quota the whole
// link is reservable up to, but never including, the full bandwidth).
func (n *Network) checkReserve(pt *topology.Port, rate float64) error {
	pipe := pt.Pipeline()
	if !pipe.SupportsGuaranteed() {
		return fmt.Errorf("core: link %s runs a %s pipeline and cannot reserve a clock rate",
			pt.Name(), pipe.Profile().Kind)
	}
	after := pipe.Reserved() + rate
	if after > n.reserveLimit(pt) || after >= pt.Bandwidth() {
		return fmt.Errorf("core: link %s cannot reserve %v bits/s (reserved %v, quota %v)",
			pt.Name(), rate, pipe.Reserved(), n.reserveLimit(pt))
	}
	return nil
}

// RequestGuaranteed asks for guaranteed service along path with the given
// spec. On success the clock rate is reserved at every hop. Every hop's
// pipeline must support per-flow reservations (an incrementally deployed
// network refuses guaranteed service across un-upgraded FIFO hops).
func (n *Network) RequestGuaranteed(id uint32, path []string, spec GuaranteedSpec) (*Flow, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	pid, ports, err := n.flowPath(id, path, packet.Guaranteed)
	if err != nil {
		return nil, err
	}
	// A link holds one clock rate per flow, so a path that loops back over
	// a link has no reservation to make at its second visit.
	for i, pt := range ports {
		if slices.Contains(ports[:i], pt) {
			return nil, fmt.Errorf("core: guaranteed path %s crosses link %s twice; a flow reserves one clock rate per link",
				strings.Join(path, " -> "), pt.Name())
		}
	}
	// Admission: never let reservations invade the datagram quota.
	token, err := n.admitAlong(ports, demand{class: packet.Guaranteed, rate: spec.ClockRate})
	if err != nil {
		return nil, err
	}
	for _, pt := range ports {
		pt.Pipeline().AddGuaranteed(id, spec.ClockRate)
	}
	f := &Flow{
		ID:           id,
		PathID:       pid,
		Class:        packet.Guaranteed,
		net:          n,
		bound:        n.pgBound(spec, ports),
		declaredRate: spec.ClockRate,
		gspec:        spec,
	}
	f.claim(token)
	n.registerFlow(f)
	return f, nil
}

// flowPath is the prologue every flow request shares: the id must be free
// and not the schedulers' own (sched.Flow0ID, the pseudo flow every port
// registers), the path must name at least its ingress switch (a destination
// lookup that found no route hands in an empty one), and the path is
// interned; a guaranteed or predicted flow needs at least one link to make
// its commitment on.
func (n *Network) flowPath(id uint32, path []string, class packet.Class) (PathID, []*topology.Port, error) {
	if id == sched.Flow0ID {
		return 0, nil, fmt.Errorf("core: flow id %d is reserved for the pseudo flow of predicted and datagram traffic", id)
	}
	if _, dup := n.flows[id]; dup {
		return 0, nil, fmt.Errorf("core: flow %d already exists", id)
	}
	if len(path) == 0 {
		return 0, nil, fmt.Errorf("core: %v flow needs a path", class)
	}
	pid, err := n.InternPath(path)
	if err != nil {
		return 0, nil, err
	}
	ports := n.pathPortsByID(pid)
	if len(ports) == 0 && class != packet.Datagram {
		return 0, nil, fmt.Errorf("core: %v flow needs at least one link", class)
	}
	return pid, ports, nil
}

// RequestPredicted asks for predicted service along path. The requested
// (D, L) pair selects the priority class: the flow lands in the highest
// (most delayed-bounded) class whose advertised bound over this path does
// not exceed D. Edge policing to (r, b) is armed on the returned flow.
func (n *Network) RequestPredicted(id uint32, path []string, spec PredictedSpec) (*Flow, error) {
	return n.requestPredicted(id, path, -1, spec)
}

// RequestPredictedClass pins the flow to an explicit priority class,
// matching the paper's Table 3 setup where flows are assigned to
// Predicted-High / Predicted-Low directly.
func (n *Network) RequestPredictedClass(id uint32, path []string, class uint8, spec PredictedSpec) (*Flow, error) {
	return n.requestPredicted(id, path, int(class), spec)
}

// requestPredicted is both predicted requests; class -1 selects the class
// from the spec's delay target.
func (n *Network) requestPredicted(id uint32, path []string, class int, spec PredictedSpec) (*Flow, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	pid, ports, err := n.flowPath(id, path, packet.Predicted)
	if err != nil {
		return nil, err
	}
	if class < 0 {
		if class = n.classForPorts(ports, spec.Delay); class < 0 {
			worst := n.pathClasses(ports) - 1
			return nil, fmt.Errorf("core: no predicted class can meet delay target %v over %d hops (largest advertised %v)",
				spec.Delay, len(path)-1, n.advertisedBound(ports, worst))
		}
	} else if k := n.pathClasses(ports); class >= k {
		return nil, fmt.Errorf("core: class %d out of range (%d classes on this path)", class, k)
	}
	token, err := n.admitAlong(ports, spec.demand(class))
	if err != nil {
		return nil, err
	}
	f := &Flow{
		ID:           id,
		PathID:       pid,
		Class:        packet.Predicted,
		Priority:     uint8(class),
		net:          n,
		policed:      true,
		policer:      tokenbucket.Make(spec.TokenRate, spec.BucketBits),
		bound:        n.advertisedBound(ports, class),
		declaredRate: spec.TokenRate,
		pspec:        spec,
	}
	f.claim(token)
	n.registerFlow(f)
	return f, nil
}

// classForPorts returns the lowest-priority (cheapest) class whose
// advertised bound still meets the delay target, or -1.
func (n *Network) classForPorts(ports []*topology.Port, target float64) int {
	for class := n.pathClasses(ports) - 1; class >= 0; class-- {
		if n.advertisedBound(ports, class) <= target {
			return class
		}
	}
	return -1
}

// AddDatagramFlow installs a best-effort flow (no commitment, no policing).
func (n *Network) AddDatagramFlow(id uint32, path []string) (*Flow, error) {
	pid, _, err := n.flowPath(id, path, packet.Datagram)
	if err != nil {
		return nil, err
	}
	f := &Flow{
		ID:     id,
		PathID: pid,
		Class:  packet.Datagram,
		net:    n,
		bound:  -1,
	}
	n.registerFlow(f)
	return f, nil
}

// Release removes a flow's reservations, releases its admission-control
// capacity and forgets the flow (a departure): afterwards the network holds
// nothing for the flow, at any switch. Guaranteed backlog still queued at a
// hop drains at the old clock rate before the WFQ registration disappears,
// and packets in flight are still delivered to the flow, metered and tapped,
// because each carries the route — which lives inside the Flow, so the Flow
// (route, policer and meter with it) is garbage once the last of them is
// recycled and the caller drops it. The id is free for a new request;
// packets of the departed flow keep reaching the departed Flow, not the
// newcomer. Releasing an unknown id is a no-op.
func (n *Network) Release(id uint32) {
	f, ok := n.flows[id]
	if !ok {
		return
	}
	ports := n.portsOf(f)
	if f.Class == packet.Guaranteed {
		for _, pt := range ports {
			pt.Pipeline().RemoveGuaranteed(id)
		}
	}
	// Hand this flow's ledger claims back to each hop.
	n.releaseLedger(ports, f.ledgerTokens...)
	delete(n.flows, id)
}

// RenegotiateGuaranteed changes an existing guaranteed flow's spec in place:
// a rate increase re-runs the quota and admission checks for the delta; a
// decrease always succeeds, frees the WFQ share and reservation quota
// immediately, and replaces the flow's warmup-ledger claims with a single
// fresh entry at the new (smaller) rate — measurement covers whatever the
// flow actually sent. On success the flow's advertised bound is recomputed.
func (n *Network) RenegotiateGuaranteed(id uint32, spec GuaranteedSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	f, ok := n.flows[id]
	if !ok {
		return fmt.Errorf("core: flow %d does not exist", id)
	}
	if f.Class != packet.Guaranteed {
		return fmt.Errorf("core: flow %d is not guaranteed", id)
	}
	ports := n.portsOf(f)
	switch delta := spec.ClockRate - f.gspec.ClockRate; {
	case delta > 0:
		token, err := n.admitAlong(ports, demand{class: packet.Guaranteed, rate: delta})
		if err != nil {
			return err
		}
		f.claim(token)
	case delta < 0:
		n.reledger(ports, f, spec.ClockRate)
	}
	for _, pt := range ports {
		pt.Pipeline().SetGuaranteedRate(id, spec.ClockRate)
	}
	f.gspec = spec
	f.declaredRate = spec.ClockRate
	f.bound = n.pgBound(spec, ports)
	return nil
}
