package core

import (
	"fmt"
	"slices"
	"sort"
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

// NoDatagramQuota is the Config.DatagramQuota (and sched.Profile) sentinel
// meaning "reserve nothing for datagram traffic". The zero value means "use
// the paper's default" (0.10), so an explicit zero-quota network needs this
// sentinel — any negative value works, this constant is the documented
// spelling.
const NoDatagramQuota = sched.NoDatagramQuota

// Config parameterizes an ISPN network. It doubles as the *default per-port
// scheduling profile*: every link created without an explicit profile runs
// the pipeline these fields describe, and ConnectWith can override any of it
// per link (heterogeneous deployments).
//
// Zero-value handling: a zero field selects the paper's default, which makes
// "explicitly zero" inexpressible for two knobs. DatagramQuota has the
// NoDatagramQuota sentinel for "no datagram reservation"; LinkRate has no
// sentinel because a zero-rate link is meaningless (negative values panic
// rather than being silently replaced).
type Config struct {
	// LinkRate is the inter-switch link bandwidth in bits/second
	// (paper: 1 Mbit/s). 0 selects the default; negative values panic.
	LinkRate float64
	// Discipline is the default per-port pipeline kind (sched.KindUnified
	// when empty; see sched.PipelineKinds for the registry).
	Discipline string
	// PredictedClasses is K, the number of predicted-service priority
	// classes (paper's Table 3 uses 2).
	PredictedClasses int
	// ClassTargets is the per-switch a priori delay bound Dᵢ of each
	// predicted class, in seconds; the advertised bound for a path is
	// the sum over its hops. Must have PredictedClasses entries. The
	// paper wants these "widely spaced" (an order of magnitude apart).
	ClassTargets []float64
	// BufferPackets is the per-port buffer (paper: 200).
	BufferPackets int
	// PropDelay is the per-link propagation delay (paper: effectively 0).
	PropDelay float64
	// MaxPacketBits is the largest packet (paper: 1000); used in bound
	// computation.
	MaxPacketBits int
	// FIFOPlusGain tunes the FIFO+ class-average EWMA.
	FIFOPlusGain float64
	// Sharing selects the intra-class sharing discipline (ablations).
	Sharing SharingMode
	// AdmissionControl enables the Section 9 measurement-based admission
	// test on Request* calls. When false, requests are only checked
	// against the hard 90% reservation quota.
	AdmissionControl bool
	// DatagramQuota is the fraction of each link reserved for datagram
	// traffic: 0 means the paper's default (0.10), NoDatagramQuota means
	// no reservation at all.
	DatagramQuota float64
	// Seed drives all randomness derived from this network.
	Seed int64
}

// SharingMode selects the sharing discipline inside each predicted class.
// It is sched.Sharing; the core aliases keep the historical names.
type SharingMode = sched.Sharing

const (
	// SharingFIFOPlus is the paper's design (FIFO+).
	SharingFIFOPlus = sched.SharingFIFOPlus
	// SharingFIFO is plain FIFO (no cross-hop correlation).
	SharingFIFO = sched.SharingFIFO
	// SharingRoundRobin is per-flow round robin (the Jacobson–Floyd
	// alternative).
	SharingRoundRobin = sched.SharingRoundRobin
)

func (c *Config) fillDefaults() {
	if c.LinkRate < 0 {
		panic(fmt.Sprintf("core: LinkRate must be positive, got %v", c.LinkRate))
	}
	if c.LinkRate == 0 {
		c.LinkRate = 1e6
	}
	if c.PredictedClasses == 0 {
		c.PredictedClasses = 2
	}
	if c.BufferPackets == 0 {
		c.BufferPackets = topology.DefaultBufferPackets
	}
	if c.MaxPacketBits == 0 {
		c.MaxPacketBits = 1000
	}
	// DatagramQuota: zero means the paper's default; NoDatagramQuota (any
	// negative value) is kept as-is and interpreted as quota 0 everywhere
	// via sched.Profile.Quota.
	if c.DatagramQuota == 0 {
		c.DatagramQuota = sched.DefaultDatagramQuota
	}
	if c.DatagramQuota >= 1 {
		panic(fmt.Sprintf("core: DatagramQuota must be below 1, got %v", c.DatagramQuota))
	}
	if len(c.ClassTargets) == 0 {
		// Widely spaced targets, an order of magnitude apart.
		c.ClassTargets = make([]float64, c.PredictedClasses)
		d := 0.032
		for i := range c.ClassTargets {
			c.ClassTargets[i] = d
			d *= 10
		}
	}
	if len(c.ClassTargets) != c.PredictedClasses {
		panic("core: ClassTargets must match PredictedClasses")
	}
}

// profile derives the default per-port scheduling profile from the filled
// config.
func (c *Config) profile() sched.Profile {
	return sched.Profile{
		Kind:          c.Discipline,
		Sharing:       c.Sharing,
		ClassTargets:  c.ClassTargets,
		DatagramQuota: c.DatagramQuota,
		FIFOPlusGain:  c.FIFOPlusGain,
		MaxPacketBits: c.MaxPacketBits,
	}.Normalize()
}

// Network is an ISPN: a topology whose every output port runs a scheduling
// pipeline built from a per-port profile (the config's profile by default),
// plus the bookkeeping that turns service requests into reservations,
// enforcement and measurement. Per-port state is held in dense slices
// indexed by topology.Port.Index, so no map iteration order can leak into
// results.
type Network struct {
	cfg   Config
	def   sched.Profile // default per-port profile, derived from cfg
	eng   *sim.Engine
	topo  *topology.Network
	pipes []sched.Pipeline        // port index -> pipeline
	profs []sched.Profile         // port index -> effective profile
	admit []*admission.Controller // port index -> controller (nil until used)
	flows map[uint32]*Flow
	// ledgerSeq numbers admission operations; each successful request or
	// renegotiation tags its warmup-ledger entries with one token, so
	// releases touch exactly the entries that operation created.
	ledgerSeq uint64

	// Failure-aware rerouting (see reroute.go). routingSet distinguishes
	// "never configured" from an explicit zero config; the counters total
	// successful reroutes and refusals across all flows.
	routing         RoutingConfig
	routingSet      bool
	reroutes        int64
	rerouteRefusals int64

	// coord drives sharded execution (see SetShards); nil means the
	// classic single-engine run.
	coord *sim.Coordinator

	// flowHook, when set, observes every flow as it is registered
	// (admission already passed). The invariant oracle attaches here; nil
	// costs registerFlow a single pointer compare.
	flowHook func(*Flow)

	// intern stores every distinct path once; flows hold PathIDs into it
	// (see intern.go).
	intern pathTable

	// Predicted-flow aggregation state (see aggregate.go) and the
	// destination-locality route cache (see routecache wiring in
	// reroute.go); both nil/empty until used.
	aggs       map[aggKey]*Aggregate
	aggOrder   []*Aggregate
	routeCache *routing.Cache
	routeGraph *routing.Graph // persistent graph for the active cost
	carrierSeq uint32
}

// New creates an empty ISPN.
func New(cfg Config) *Network {
	cfg.fillDefaults()
	eng := sim.New()
	return &Network{
		cfg:   cfg,
		def:   cfg.profile(),
		eng:   eng,
		topo:  topology.NewNetwork(eng),
		flows: make(map[uint32]*Flow),
	}
}

// Engine exposes the simulation engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Pool exposes the network's one packet free list, shared by every shard of
// a sharded run (see packet.Pool for the ownership rules). Attach it to
// sources so steady-state runs allocate no packets.
func (n *Network) Pool() *packet.Pool { return n.topo.Pool() }

// Topology exposes the underlying topology.
func (n *Network) Topology() *topology.Network { return n.topo }

// Config returns the network configuration (defaults filled).
func (n *Network) Config() Config { return n.cfg }

// DefaultProfile returns the per-port scheduling profile links get when
// ConnectWith is given none — the network config, seen as a profile.
func (n *Network) DefaultProfile() sched.Profile { return n.def }

// RNG derives a deterministic named random stream from the network seed.
func (n *Network) RNG(name string) *sim.RNG { return sim.DeriveRNG(n.cfg.Seed, name) }

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
	effective := n.def
	if prof != nil {
		effective = prof.Normalize()
	}
	pipe, err := sched.NewPipeline(effective, rate)
	if err != nil {
		return nil, fmt.Errorf("core: link %s->%s: %v", from, to, err)
	}
	// The dense per-port slices are indexed by Port.Index, which counts
	// every AddLink on the topology — links added behind the network's
	// back would silently shift the correspondence.
	if n.topo.NumPorts() != len(n.pipes) {
		panic("core: topology ports were added outside ConnectWith; per-port state is indexed by creation order")
	}
	port := n.topo.AddLink(from, to, pipe, rate, propDelay)
	port.SetBufferLimit(n.cfg.BufferPackets)
	n.pipes = append(n.pipes, pipe)
	n.profs = append(n.profs, effective)
	n.admit = append(n.admit, nil)
	n.invalidateRoutes() // a new link may shorten cached routes
	return port, nil
}

// pipe returns the pipeline at a port.
func (n *Network) pipe(pt *topology.Port) sched.Pipeline { return n.pipes[pt.Index()] }

// Pipeline returns the scheduling pipeline running at a port.
func (n *Network) Pipeline(pt *topology.Port) sched.Pipeline { return n.pipe(pt) }

// ProfileAt returns the effective (normalized) scheduling profile of a port.
func (n *Network) ProfileAt(pt *topology.Port) sched.Profile { return n.profs[pt.Index()] }

// LinkProfile returns the effective profile of the link from -> to.
func (n *Network) LinkProfile(from, to string) (sched.Profile, error) {
	pt, err := n.port(from, to)
	if err != nil {
		return sched.Profile{}, err
	}
	return n.profs[pt.Index()], nil
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

// SetLink reconfigures a link's bandwidth and/or propagation delay mid-run
// (zero leaves the respective knob unchanged). The new rate must exceed the
// link's guaranteed reservations; the packet currently being serialized
// finishes at the old rate. Note that per-flow queueing-delay normalization
// uses the rates seen at flow setup, so delay reports of flows that straddle
// a rate change are measured against their setup-time fixed delay.
func (n *Network) SetLink(from, to string, rate, propDelay float64) error {
	pt, err := n.port(from, to)
	if err != nil {
		return err
	}
	if rate != 0 {
		if rate < 0 {
			return fmt.Errorf("core: link %s->%s rate must be positive, got %v", from, to, rate)
		}
		pipe := n.pipe(pt)
		if res := pipe.Reserved(); rate <= res {
			return fmt.Errorf("core: link %s->%s rate %v bits/s does not cover %v bits/s of guaranteed reservations",
				from, to, rate, res)
		}
		pipe.SetLinkRate(rate, n.eng.Now())
		pt.SetBandwidth(rate)
		if c := n.admit[pt.Index()]; c != nil {
			c.SetLinkRate(rate)
		}
	}
	if propDelay != 0 {
		if propDelay < 0 {
			return fmt.Errorf("core: link %s->%s propagation delay must be non-negative, got %v", from, to, propDelay)
		}
		pt.SetPropDelay(propDelay)
	}
	n.invalidateRoutes() // rate and delay feed the delay/load costs
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
	idx := pt.Index()
	prof = prof.Normalize()
	pipe, err := sched.NewPipeline(prof, pt.Bandwidth())
	if err != nil {
		return fmt.Errorf("core: link %s->%s: %v", from, to, err)
	}
	old := n.pipes[idx]
	if res := old.Reserved(); res > 0 {
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
			for _, fp := range n.portsOf(f) {
				if fp == pt {
					pipe.AddGuaranteed(f.ID, f.gspec.ClockRate)
					break
				}
			}
		}
	}
	pt.SetScheduler(pipe)
	n.pipes[idx] = pipe
	n.profs[idx] = prof
	if c := n.admit[idx]; c != nil {
		c.SetQuota(1 - prof.Quota())
		c.SetClassTargets(prof.ClassTargets)
	}
	n.invalidateRoutes() // the profile's max packet size feeds the delay cost
	return nil
}

// flowsByID returns the live flows sorted by id (deterministic iteration
// over the flows map).
func (n *Network) flowsByID() []*Flow {
	ids := make([]uint32, 0, len(n.flows))
	for id := range n.flows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*Flow, len(ids))
	for i, id := range ids {
		out[i] = n.flows[id]
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
// it does not re-optimize on recovery (call RerouteFlow to move a flow
// back explicitly).
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

// Run advances the simulation by d seconds — on the single engine, or,
// after SetShards, through the shard coordinator (whose control clock is
// the network engine's, so Engine().Now() stays the run's reference time in
// both modes).
func (n *Network) Run(d float64) {
	if n.coord != nil {
		n.coord.Run(n.eng.Now() + d)
		return
	}
	n.eng.RunUntil(n.eng.Now() + d)
}

// Flow is an admitted flow: its route is installed, reservations (if
// guaranteed) are in place, edge policing (if predicted) is armed, and a
// meter records end-to-end queueing delays at the sink.
//
// Per-flow state is deliberately lean: the hop sequence lives once in the
// network's intern table (PathID names it), and the delay recorder is
// allocated lazily on first delivery, so a flow that has not carried
// traffic yet costs tens of bytes beyond the struct itself.
type Flow struct {
	ID       uint32
	PathID   PathID
	Class    packet.Class
	Priority uint8

	net        *Network
	ingress    *topology.Node  // resolved first switch, per-packet fast path
	route      *topology.Route // forwarding state, stamped into every packet
	eng        *sim.Engine     // the ingress switch's engine (its shard's)
	fixedDelay float64
	policer    *tokenbucket.Bucket
	policerCnt stats.Counter
	meter      *stats.Recorder
	delivered  int64
	sinkTap    func(p *packet.Packet, queueing float64)
	bound      float64
	// declaredRate is the flow's current declared rate (guaranteed clock
	// rate or predicted token rate). ledgerTokens lists the admission
	// operations (initial request plus renegotiations) whose warmup-ledger
	// entries belong to this flow, so Release hands back exactly this
	// flow's still-warming claims and never another flow's equal-rate
	// entry.
	declaredRate float64
	ledgerTokens []uint64
	pspec        PredictedSpec // predicted flows: current spec (renegotiation)
	gspec        GuaranteedSpec

	// rerouted counts successful path moves; rerouteRefused counts
	// reroute attempts the new path's admission turned down (the flow
	// kept its old path and reservations).
	rerouted       int64
	rerouteRefused int64

	// checkTap, when set, observes every delivery before the user-facing
	// sinkTap — the invariant oracle's per-packet hook. Separate from
	// sinkTap so enabling checks never displaces a playback client or
	// trace series.
	checkTap func(p *packet.Packet, queueing float64)
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

// Meter returns the recorder of end-to-end queueing delays (seconds).
// Recorders are allocated lazily — on first delivery, or here on first
// inspection — so idle flows never pay for one; an empty recorder reports
// the same zeros a flow with no deliveries always did.
func (f *Flow) Meter() *stats.Recorder {
	if f.meter == nil {
		f.meter = stats.NewRecorder()
	}
	return f.meter
}

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

// PredictedSpec returns the current spec of a predicted flow (zero value
// otherwise).
func (f *Flow) PredictedSpec() PredictedSpec { return f.pspec }

// Tap registers a callback invoked at the sink with each delivered packet
// and its end-to-end queueing delay (adaptive playback clients hook here).
func (f *Flow) Tap(fn func(p *packet.Packet, queueing float64)) { f.sinkTap = fn }

// SetCheckTap registers the invariant oracle's delivery observer, invoked
// before the flow's Tap. Like Tap, the callback must not retain the packet.
func (f *Flow) SetCheckTap(fn func(p *packet.Packet, queueing float64)) { f.checkTap = fn }

// IngressEngine returns the engine of the flow's first switch — the engine
// the flow's sources must run on. Equal to the network engine when
// unsharded.
func (f *Flow) IngressEngine() *sim.Engine { return f.eng }

// IngressPool returns the packet free list the flow's sources should draw
// from (the network's one pool, sharded or not).
func (f *Flow) IngressPool() *packet.Pool { return f.ingress.Pool() }

// EgressEngine returns the engine of the flow's last switch, whose clock
// timestamps deliveries at the sink.
func (f *Flow) EgressEngine() *sim.Engine {
	p := f.Path()
	return f.net.topo.Node(p[len(p)-1]).Engine()
}

// Inject polices (predicted service), stamps service fields and injects the
// packet at the flow's first switch. It reports whether the packet entered
// the network. Sources use this as their Inject target.
func (f *Flow) Inject(p *packet.Packet) bool {
	now := f.eng.Now()
	if f.policer != nil {
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
	p.Route = f.route
	f.ingress.Inject(p)
	return true
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
	f.route = n.topo.InstallRouteAlong(f.ID, f.ingress, ports)
	f.eng = f.ingress.Engine()
	f.fixedDelay = topology.FixedDelayAlong(ports, n.cfg.MaxPacketBits)
	return last
}

func (n *Network) registerFlow(f *Flow) {
	last := n.routeAlong(f)
	// Delivery timestamps come off the last switch's engine: under
	// sharding the network engine's clock sits at the previous barrier
	// while the egress shard's clock is the packet's true arrival time.
	sinkEng := last.Engine()
	last.SetSink(f.ID, func(p *packet.Packet) {
		q := sinkEng.Now() - p.CreatedAt - f.fixedDelay
		if q < 0 {
			q = 0
		}
		if f.meter == nil {
			f.meter = stats.NewRecorder()
		}
		f.meter.Add(q)
		f.delivered++
		if f.checkTap != nil {
			f.checkTap(p, q)
		}
		if f.sinkTap != nil {
			f.sinkTap(p, q)
		}
	})
	n.flows[f.ID] = f
	if n.flowHook != nil {
		n.flowHook(f)
	}
}

// SetFlowHook registers an observer called with every flow at registration
// time (after admission, before any packet flows). The invariant oracle
// uses it to arm per-flow delivery checks; flows that already exist are not
// replayed, so attach observers before creating flows.
func (n *Network) SetFlowHook(fn func(*Flow)) { n.flowHook = fn }

// Flows returns the live flows sorted by id — a deterministic snapshot for
// sweeps and checkers (the internal map must never dictate an order).
func (n *Network) Flows() []*Flow { return n.flowsByID() }

// Flow returns an admitted flow by id, or nil.
func (n *Network) Flow(id uint32) *Flow { return n.flows[id] }

// sumOrScale adds k per-hop values; when every value is identical it
// returns the closed form value*k instead, so homogeneous deployments stay
// bit-identical to the historical one-global-constant formula (repeated
// addition and multiplication can differ in the last ulp).
func sumOrScale(vals func(i int) float64, k int) float64 {
	if k == 0 {
		return 0
	}
	first := vals(0)
	sum := first
	uniform := true
	for i := 1; i < k; i++ {
		v := vals(i)
		if v != first {
			uniform = false
		}
		sum += v
	}
	if uniform {
		return float64(k) * first
	}
	return sum
}

// advertisedBound is the a priori bound quoted to a predicted flow of the
// given class over a path: the sum of the per-switch class targets
// Dᵢ along the path (Section 7: "the network should not attempt to
// characterize or control the service to great precision, and thus should
// just use the sum of the Dᵢ's as the advertised bound"). With per-port
// profiles each hop contributes its own target; a hop with fewer classes
// contributes its lowest-priority target (the same clamp its classifier
// applies to the packet header).
func (n *Network) advertisedBound(ports []*topology.Port, class int) float64 {
	return sumOrScale(func(i int) float64 {
		return n.profs[ports[i].Index()].TargetFor(class)
	}, len(ports))
}

// pathClasses returns the number of explicitly addressable predicted
// classes over a path: the maximum class count among its hops (hops with
// fewer classes clamp, they do not forbid).
func (n *Network) pathClasses(ports []*topology.Port) int {
	k := 0
	for _, pt := range ports {
		if c := n.profs[pt.Index()].Classes(); c > k {
			k = c
		}
	}
	return k
}

// pgBound is the Parekh–Gallager bound for a guaranteed flow over the given
// ports, with each hop after the first contributing its own maximum packet
// size to the packetization term: D = b/r + (Σ_{k≥2} Lmaxₖ)/r.
func (n *Network) pgBound(spec GuaranteedSpec, ports []*topology.Port) float64 {
	sumL := sumOrScale(func(i int) float64 {
		return float64(n.profs[ports[i+1].Index()].MaxPacketBits)
	}, len(ports)-1)
	return spec.BucketBits/spec.ClockRate + sumL/spec.ClockRate
}

// reserveLimit is the clock-rate capacity of a port: its bandwidth minus
// the datagram quota of its profile.
func (n *Network) reserveLimit(pt *topology.Port) float64 {
	return (1 - n.profs[pt.Index()].Quota()) * pt.Bandwidth()
}

// checkReserve verifies that adding rate to a port's reservations respects
// its datagram quota and leaves flow 0 alive (with a zero quota the whole
// link is reservable up to, but never including, the full bandwidth).
func (n *Network) checkReserve(pt *topology.Port, rate float64) error {
	pipe := n.pipe(pt)
	if !pipe.SupportsGuaranteed() {
		return fmt.Errorf("core: link %s runs a %s pipeline and cannot reserve a clock rate",
			pt.Name(), n.profs[pt.Index()].Kind)
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
	if _, dup := n.flows[id]; dup {
		return nil, fmt.Errorf("core: flow %d already exists", id)
	}
	pid := n.InternPath(path)
	ports := n.pathPortsByID(pid)
	if len(ports) == 0 {
		return nil, fmt.Errorf("core: guaranteed flow needs at least one link")
	}
	// A link holds one clock rate per flow, so a path that loops back over
	// a link has no reservation to make at its second visit.
	for i, pt := range ports {
		if slices.Contains(ports[:i], pt) {
			return nil, fmt.Errorf("core: guaranteed path %s crosses link %s twice; a flow reserves one clock rate per link",
				strings.Join(path, " -> "), pt.Name())
		}
	}
	// Admission: never let reservations invade the datagram quota. A
	// failure at a later hop rolls back the ledger entries already
	// committed at earlier hops, so a refused request charges nothing.
	token := n.nextLedgerToken()
	for i, pt := range ports {
		if err := n.checkReserve(pt, spec.ClockRate); err != nil {
			n.rollbackLedger(ports[:i], token)
			return nil, err
		}
		if n.cfg.AdmissionControl {
			if err := n.admitGuaranteed(pt, spec.ClockRate, token); err != nil {
				n.rollbackLedger(ports[:i], token)
				return nil, err
			}
		}
	}
	for _, pt := range ports {
		n.pipe(pt).AddGuaranteed(id, spec.ClockRate)
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
	if n.cfg.AdmissionControl {
		f.ledgerTokens = []uint64{token}
	}
	n.registerFlow(f)
	return f, nil
}

// RequestPredicted asks for predicted service along path. The requested
// (D, L) pair selects the priority class: the flow lands in the highest
// (most delayed-bounded) class whose advertised bound over this path does
// not exceed D. Edge policing to (r, b) is armed on the returned flow.
func (n *Network) RequestPredicted(id uint32, path []string, spec PredictedSpec) (*Flow, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if _, dup := n.flows[id]; dup {
		return nil, fmt.Errorf("core: flow %d already exists", id)
	}
	ports := n.topo.PathPorts(path)
	if len(ports) == 0 {
		return nil, fmt.Errorf("core: predicted flow needs at least one link")
	}
	class := n.classForPorts(ports, spec.Delay)
	if class < 0 {
		worst := n.pathClasses(ports) - 1
		return nil, fmt.Errorf("core: no predicted class can meet delay target %v over %d hops (largest advertised %v)",
			spec.Delay, len(path)-1, n.advertisedBound(ports, worst))
	}
	return n.RequestPredictedClass(id, path, uint8(class), spec)
}

// RequestPredictedClass pins the flow to an explicit priority class,
// matching the paper's Table 3 setup where flows are assigned to
// Predicted-High / Predicted-Low directly.
func (n *Network) RequestPredictedClass(id uint32, path []string, class uint8, spec PredictedSpec) (*Flow, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if _, dup := n.flows[id]; dup {
		return nil, fmt.Errorf("core: flow %d already exists", id)
	}
	pid := n.InternPath(path)
	ports := n.pathPortsByID(pid)
	if len(ports) == 0 {
		return nil, fmt.Errorf("core: predicted flow needs at least one link")
	}
	if k := n.pathClasses(ports); int(class) >= k {
		return nil, fmt.Errorf("core: class %d out of range (%d classes on this path)", class, k)
	}
	token := n.nextLedgerToken()
	if n.cfg.AdmissionControl {
		for i, pt := range ports {
			if err := n.admitPredicted(pt, spec, int(class), token); err != nil {
				n.rollbackLedger(ports[:i], token)
				return nil, err
			}
		}
	}
	f := &Flow{
		ID:           id,
		PathID:       pid,
		Class:        packet.Predicted,
		Priority:     class,
		net:          n,
		policer:      tokenbucket.New(spec.TokenRate, spec.BucketBits),
		bound:        n.advertisedBound(ports, int(class)),
		declaredRate: spec.TokenRate,
		pspec:        spec,
	}
	if n.cfg.AdmissionControl {
		f.ledgerTokens = []uint64{token}
	}
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
	if _, dup := n.flows[id]; dup {
		return nil, fmt.Errorf("core: flow %d already exists", id)
	}
	f := &Flow{
		ID:     id,
		PathID: n.InternPath(path),
		Class:  packet.Datagram,
		net:    n,
		bound:  -1,
	}
	n.registerFlow(f)
	return f, nil
}

// Release removes a flow's reservations, releases its admission-control
// capacity and forgets its route (a departure): afterwards the network holds
// nothing for the flow, at any switch. Guaranteed backlog still queued at a
// hop drains at the old clock rate before the WFQ registration disappears,
// and packets in flight are still delivered to the flow's sink, because each
// carries the route itself — the route, the sink and the Flow behind it are
// garbage once the last of them is recycled (and the caller drops the Flow).
// The id is free for a new request; packets of the departed flow keep
// reaching the departed flow's sink, not the newcomer's. Releasing an
// unknown id is a no-op.
func (n *Network) Release(id uint32) {
	f, ok := n.flows[id]
	if !ok {
		return
	}
	ports := n.portsOf(f)
	if f.Class == packet.Guaranteed {
		for _, pt := range ports {
			n.pipe(pt).RemoveGuaranteed(id)
		}
	}
	if f.Class != packet.Datagram {
		// Hand this flow's ledger claims (initial request plus any
		// renegotiations) back to each hop; entries that outlived their
		// warmup are already gone and release as a no-op.
		n.releaseLedger(ports, f.ledgerTokens)
	}
	n.topo.RemoveRoute(id)
	delete(n.flows, id)
}

// nextLedgerToken numbers an admission operation.
func (n *Network) nextLedgerToken() uint64 {
	n.ledgerSeq++
	return n.ledgerSeq
}

// rollbackLedger releases one operation's admission ledger entries from each
// port — the undo path when a multi-hop request or renegotiation fails at a
// later hop after earlier hops already committed.
func (n *Network) rollbackLedger(ports []*topology.Port, token uint64) {
	n.releaseLedger(ports, []uint64{token})
}

// releaseLedger drops every still-warming ledger entry of the given
// operations from each port's controller.
func (n *Network) releaseLedger(ports []*topology.Port, tokens []uint64) {
	now := n.eng.Now()
	for _, pt := range ports {
		if c := n.admit[pt.Index()]; c != nil {
			for _, tok := range tokens {
				c.ReleaseOwner(now, tok)
			}
		}
	}
}

// reledger replaces a flow's warmup-ledger claims with a single fresh entry
// at newRate on every hop — the renegotiation-decrease path. Without the
// fresh entry a just-admitted, never-measured flow would vanish from ν̂
// entirely; with it the flow is covered at exactly its new declared rate
// (and a later increase adds only its delta, so shrink-then-grow sums to
// the new total instead of double-charging).
func (n *Network) reledger(ports []*topology.Port, f *Flow, newRate float64, token uint64) {
	n.releaseLedger(ports, f.ledgerTokens)
	now := n.eng.Now()
	for _, pt := range ports {
		if c := n.admit[pt.Index()]; c != nil {
			c.Declare(now, newRate, token)
		}
	}
	f.ledgerTokens = []uint64{token}
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
	delta := spec.ClockRate - f.gspec.ClockRate
	token := n.nextLedgerToken()
	if delta > 0 {
		for i, pt := range ports {
			if err := n.checkReserve(pt, delta); err != nil {
				n.rollbackLedger(ports[:i], token)
				return err
			}
			if n.cfg.AdmissionControl {
				if err := n.admitGuaranteed(pt, delta, token); err != nil {
					n.rollbackLedger(ports[:i], token)
					return err
				}
			}
		}
		if n.cfg.AdmissionControl {
			f.ledgerTokens = append(f.ledgerTokens, token)
		}
	} else if delta < 0 && n.cfg.AdmissionControl {
		n.reledger(ports, f, spec.ClockRate, token)
	}
	for _, pt := range ports {
		n.pipe(pt).SetGuaranteedRate(id, spec.ClockRate)
	}
	f.gspec = spec
	f.declaredRate = spec.ClockRate
	f.bound = n.pgBound(spec, ports)
	return nil
}

// RenegotiatePredicted changes an existing predicted flow's (r, b) in place.
// The flow keeps its priority class. Any growth of the commitment — token
// rate or bucket depth — is re-tested against admission (with the rate
// delta only, since the flow's current traffic is already inside the
// measured ν̂, but with the full new bucket, since criterion 2 bounds burst
// depth against class delay headroom). On success the edge policer is
// replaced with a fresh bucket at the new parameters.
func (n *Network) RenegotiatePredicted(id uint32, spec PredictedSpec) error {
	f, ok := n.flows[id]
	if !ok {
		return fmt.Errorf("core: flow %d does not exist", id)
	}
	if f.Class != packet.Predicted {
		return fmt.Errorf("core: flow %d is not predicted", id)
	}
	if spec.Delay == 0 {
		// Renegotiation keeps the class, so a delay target is optional;
		// a partial spec keeps the flow's current one.
		spec.Delay = f.pspec.Delay
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	ports := n.portsOf(f)
	delta := spec.TokenRate - f.pspec.TokenRate
	if n.cfg.AdmissionControl {
		if delta > 0 || spec.BucketBits > f.pspec.BucketBits {
			token := n.nextLedgerToken()
			probe := spec
			probe.TokenRate = 0
			if delta > 0 {
				probe.TokenRate = delta
			}
			for i, pt := range ports {
				if err := n.admitPredicted(pt, probe, int(f.Priority), token); err != nil {
					n.rollbackLedger(ports[:i], token)
					return err
				}
			}
			f.ledgerTokens = append(f.ledgerTokens, token)
		}
		if delta < 0 {
			n.reledger(ports, f, spec.TokenRate, n.nextLedgerToken())
		}
	}
	f.pspec = spec
	f.declaredRate = spec.TokenRate
	f.policer = tokenbucket.New(spec.TokenRate, spec.BucketBits)
	return nil
}
