// Package topology models the simulated packet network: switches connected
// by directed links, each outgoing link fronted by an output port that owns a
// scheduler, a finite packet buffer (the paper's switches buffer 200
// packets), and its own bandwidth and propagation delay — links need not be
// homogeneous (scenario dumbbells hang fast access links off a slow
// bottleneck). Hosts attach over infinitely fast links, so traffic sources
// inject directly at their first switch and flows terminate at per-flow
// sinks on their last switch.
package topology

import (
	"fmt"
	"math"

	"ispn/internal/packet"
	"ispn/internal/sched"
	"ispn/internal/sim"
	"ispn/internal/stats"
)

// DefaultBufferPackets is the paper's switch buffer size.
const DefaultBufferPackets = 200

// Sink consumes a packet that has reached its final switch.
type Sink func(p *packet.Packet)

// Network is a collection of nodes and directed links driven by one engine —
// or, after ConfigureShards, by one engine per shard plus the original
// engine acting as the control engine (timeline verbs, churn, trace
// sampling), advanced in lockstep windows by a sim.Coordinator.
type Network struct {
	eng   *sim.Engine
	pool  *packet.Pool
	nodes map[string]*Node
	order []*Node // deterministic iteration
	ports []*Port // every port, in creation order (= Port.Index order)

	// routes holds the forwarding state, one Route per flow that has one
	// installed; RemoveRoute deletes the entry (see Route for what keeps
	// the object itself alive).
	routes map[uint32]*Route

	shards    []*Shard
	lookahead float64 // min cross-shard propagation delay (+Inf if none)
}

// NewNetwork returns an empty network on the given engine.
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{
		eng:    eng,
		pool:   packet.NewPool(),
		nodes:  make(map[string]*Node),
		routes: make(map[uint32]*Route),
	}
}

// Pool returns the network's packet free list. Sources and transport
// endpoints allocate from it; the network releases delivered and dropped
// packets back into it (see the packet.Pool ownership rules). Packets
// allocated outside the pool are still accepted and simply not recycled.
func (n *Network) Pool() *packet.Pool { return n.pool }

// AddNode creates a node (switch). It panics on duplicate names.
func (n *Network) AddNode(name string) *Node {
	if _, dup := n.nodes[name]; dup {
		panic(fmt.Sprintf("topology: duplicate node %q", name))
	}
	nd := &Node{
		name:  name,
		index: len(n.order),
		net:   n,
		eng:   n.eng,
		ports: make(map[string]*Port),
	}
	n.nodes[name] = nd
	n.order = append(n.order, nd)
	return nd
}

// Node returns the named node, or nil.
func (n *Network) Node(name string) *Node { return n.nodes[name] }

// Nodes returns all nodes in creation order.
func (n *Network) Nodes() []*Node { return n.order }

// Ports returns every output port in creation order; a port's position is
// its Index, so dense per-port state can live in slices instead of
// pointer-keyed maps.
func (n *Network) Ports() []*Port { return n.ports }

// NumPorts returns the number of ports created so far.
func (n *Network) NumPorts() int { return len(n.ports) }

// AddLink creates a directed link from -> to with the given scheduler,
// bandwidth (bits/s) and propagation delay (seconds), and returns its output
// port at the sending node.
func (n *Network) AddLink(from, to string, s sched.Scheduler, bandwidth, propDelay float64) *Port {
	src, ok := n.nodes[from]
	if !ok {
		panic(fmt.Sprintf("topology: unknown node %q", from))
	}
	dst, ok := n.nodes[to]
	if !ok {
		panic(fmt.Sprintf("topology: unknown node %q", to))
	}
	if _, dup := src.ports[to]; dup {
		panic(fmt.Sprintf("topology: duplicate link %s->%s", from, to))
	}
	if bandwidth <= 0 {
		panic("topology: bandwidth must be positive")
	}
	p := &Port{
		name:      from + "->" + to,
		index:     len(n.ports),
		node:      src,
		dst:       dst,
		sched:     s,
		bandwidth: bandwidth,
		propDelay: propDelay,
		limit:     DefaultBufferPackets,
		util:      stats.NewRateMeter(1.0, 60),
	}
	n.ports = append(n.ports, p)
	// Prebound event callbacks: the transmit-complete event is the hottest
	// event in any run (one per packet-hop), so it is scheduled through
	// the engine's closure-free ScheduleCall path with these two handlers
	// allocated once per port.
	p.txDone = p.onTxDone
	p.deliver = func(arg any) { p.dst.receive(arg.(*packet.Packet)) }
	src.ports[to] = p
	src.portOrder = append(src.portOrder, p)
	return p
}

// Route is the forwarding state of one flow: its hops in path order, each
// naming a switch, the output port the flow leaves it by (nil where the flow
// terminates) and the sink registered there. The network keeps one Route per
// flow id until RemoveRoute, and every packet of the flow carries it in
// packet.Packet.Route, so a packet already in the network when the route is
// removed still finds its way: the object lives until the last packet
// holding it is recycled.
//
// A switch appears in at most one hop. Packet.Hops — links traversed so far
// — is the cursor: on the path the route was installed over it is exactly
// the index of the switch the packet is at, and find scans the handful of
// hops when it is not (a packet injected mid-path, or one that was in flight
// when the flow was rerouted).
type Route struct {
	hops []hop
}

type hop struct {
	at   *Node
	out  *Port
	sink Sink
}

// find returns the index of the route's hop at nd, trying the cursor
// position first, or -1 when the route has never visited nd.
func (r *Route) find(nd *Node, cursor int) int {
	if cursor < len(r.hops) && r.hops[cursor].at == nd {
		return cursor
	}
	for i := range r.hops {
		if r.hops[i].at == nd {
			return i
		}
	}
	return -1
}

// hopFor returns the index of the route's hop at nd, appending an empty one
// if the route has never visited nd.
func (r *Route) hopFor(nd *Node) int {
	i := r.find(nd, len(r.hops))
	if i < 0 {
		i = len(r.hops)
		r.hops = append(r.hops, hop{at: nd})
	}
	return i
}

// InstallRoute installs the path (a list of node names, first = ingress) for
// a flow: each node forwards to the next, and the last node delivers to the
// flow's sink. Every consecutive pair must be linked. It returns the flow's
// Route, which callers that build their own packets stamp into
// packet.Packet.Route to spare the ingress switch a lookup by flow id.
func (n *Network) InstallRoute(flowID uint32, path []string) *Route {
	if len(path) == 0 {
		panic("topology: empty route")
	}
	ingress, ok := n.nodes[path[0]]
	if !ok {
		panic(fmt.Sprintf("topology: unknown node %q in route", path[0]))
	}
	return n.InstallRouteAlong(flowID, ingress, n.PathPorts(path))
}

// InstallRouteAlong is InstallRoute for a caller that has already resolved
// the path: the flow enters at ingress and leaves each switch by the next of
// ports (empty for a flow that terminates where it enters).
//
// Installing over a flow's existing route changes that Route in place, so
// packets already carrying it see the change: every switch on the new path
// gets its new output port and moves to the front in path order, the new
// terminal's port is cleared, and a switch only the old path visited keeps
// its hop, stale port included. A packet queued upstream of a switch both
// paths share therefore follows the new next hop from there, while one
// already on the abandoned branch keeps going the old way — into the failed
// link, when a failure caused the reroute. Sinks stay where SetSink put
// them.
func (n *Network) InstallRouteAlong(flowID uint32, ingress *Node, ports []*Port) *Route {
	r := n.routes[flowID]
	if r == nil {
		r = &Route{hops: make([]hop, 0, len(ports)+1)}
		n.routes[flowID] = r
	}
	// hops[:placed] are the switches of the new path so far, in path order.
	at, placed := ingress, 0
	for i := 0; i <= len(ports); i++ {
		var out *Port
		if i < len(ports) {
			out = ports[i]
			if out.node != at {
				panic(fmt.Sprintf("topology: route for flow %d leaves %s by %s", flowID, at.name, out.name))
			}
		}
		j := r.hopFor(at)
		r.hops[j].out = out
		if j >= placed {
			r.hops[placed], r.hops[j] = r.hops[j], r.hops[placed]
			placed++
		} // else the path loops back to a switch: the last visit's port wins
		if out != nil {
			at = out.dst
		}
	}
	return r
}

// RemoveRoute forgets a flow's forwarding state (a departure). Packets of the
// flow already in the network carry the Route themselves and are forwarded
// and delivered as before; a packet that names the flow only by id after
// this finds no route. Removing an unknown id is a no-op.
func (n *Network) RemoveRoute(flowID uint32) { delete(n.routes, flowID) }

// PathPorts returns the output ports along a path, in order.
func (n *Network) PathPorts(path []string) []*Port {
	if len(path) < 2 {
		return nil
	}
	ports := make([]*Port, 0, len(path)-1)
	for i := 0; i < len(path)-1; i++ {
		nd := n.nodes[path[i]]
		if nd == nil {
			panic(fmt.Sprintf("topology: unknown node %q", path[i]))
		}
		p := nd.ports[path[i+1]]
		if p == nil {
			panic(fmt.Sprintf("topology: no link %s->%s", path[i], path[i+1]))
		}
		ports = append(ports, p)
	}
	return ports
}

// FixedDelay returns the constant (non-queueing) delay a packet of sizeBits
// experiences along path: per-hop store-and-forward transmission plus
// propagation. Queueing delay of a delivered packet is total delay minus
// this.
func (n *Network) FixedDelay(path []string, sizeBits int) float64 {
	return FixedDelayAlong(n.PathPorts(path), sizeBits)
}

// FixedDelayAlong is FixedDelay over already resolved output ports.
func FixedDelayAlong(ports []*Port, sizeBits int) float64 {
	fixed := 0.0
	for _, p := range ports {
		fixed += float64(sizeBits)/p.bandwidth + p.propDelay
	}
	return fixed
}

// Inject introduces a packet at the named node (the host-to-switch link is
// infinitely fast in the paper's model). Per-packet callers should resolve
// the node once and use Node.Inject instead of paying the name lookup each
// time.
func (n *Network) Inject(node string, p *packet.Packet) {
	nd, ok := n.nodes[node]
	if !ok {
		panic(fmt.Sprintf("topology: inject at unknown node %q", node))
	}
	nd.receive(p)
}

// Node is a switch. It holds no per-flow state: what a flow does here is a
// hop of the flow's Route.
type Node struct {
	name      string
	index     int
	net       *Network
	eng       *sim.Engine // the engine this node's events run on (its shard's)
	shard     int
	ports     map[string]*Port
	portOrder []*Port
	defSink   Sink
}

// Name returns the node's name.
func (nd *Node) Name() string { return nd.name }

// Index is the node's dense id: its position in network creation order
// (Nodes()[Index()] is the node), the sibling of Port.Index.
func (nd *Node) Index() int { return nd.index }

// Engine returns the engine this node's events run on: the network engine
// normally, the owning shard's engine after ConfigureShards. Anything that
// schedules work at a node — sources, transport timers, sink timestamps —
// must use this engine, not the network's.
func (nd *Node) Engine() *sim.Engine { return nd.eng }

// Pool returns the packet free list for traffic injected at this node: the
// network's one pool, sharded or not.
func (nd *Node) Pool() *packet.Pool { return nd.net.pool }

// ShardIndex returns the shard owning this node (0 when unsharded).
func (nd *Node) ShardIndex() int { return nd.shard }

// Port returns the output port toward the named neighbor, or nil.
func (nd *Node) Port(to string) *Port { return nd.ports[to] }

// Ports returns the node's output ports in creation order.
func (nd *Node) Ports() []*Port { return nd.portOrder }

// SetSink registers the consumer for a flow terminating at this node.
func (nd *Node) SetSink(flowID uint32, s Sink) {
	r := nd.net.routes[flowID]
	if r == nil {
		r = &Route{}
		nd.net.routes[flowID] = r
	}
	r.hops[r.hopFor(nd)].sink = s
}

// SetDefaultSink registers a consumer for packets with no onward route and
// no per-flow sink.
func (nd *Node) SetDefaultSink(s Sink) { nd.defSink = s }

// Inject introduces a packet at this node — the fast-path equivalent of
// Network.Inject for callers that resolved the ingress node at setup.
func (nd *Node) Inject(p *packet.Packet) { nd.receive(p) }

// receive routes or delivers a packet arriving at this node. A packet that
// names its flow only by id picks up the flow's Route here, once, at its
// ingress. Delivered packets are released back to the pool after the sink
// returns, so sinks must not retain them.
func (nd *Node) receive(p *packet.Packet) {
	r, _ := p.Route.(*Route)
	if r == nil {
		if r = nd.net.routes[p.FlowID]; r != nil {
			p.Route = r
		}
	}
	var s Sink
	if r != nil {
		if i := r.find(nd, int(p.Hops)); i >= 0 {
			if out := r.hops[i].out; out != nil {
				out.enqueue(p)
				return
			}
			s = r.hops[i].sink
		}
	}
	if s == nil {
		s = nd.defSink
	}
	if s == nil {
		panic(fmt.Sprintf("topology: packet for flow %d stranded at %s", p.FlowID, nd.name))
	}
	s(p)
	packet.Release(p)
}

// Port is the output side of a directed link: a scheduler, a buffer limit
// and a transmitter.
type Port struct {
	name       string
	index      int
	node       *Node
	dst        *Node
	sched      sched.Scheduler
	bandwidth  float64
	propDelay  float64
	down       bool
	limit      int
	qlen       int // mirrors sched.Len(), avoiding interface calls per packet
	busy       bool
	retryArmed bool // a wake-up is scheduled for a non-work-conserving scheduler
	remote     bool // link crosses a shard boundary (set by ConfigureShards)

	// txDone/deliver are the prebound transmit-complete and
	// propagation-arrival event callbacks (see AddLink).
	txDone  func(any)
	deliver func(any)

	// DiscardOffset, if positive, drops packets whose accumulated
	// jitter offset exceeds it at dequeue time — the Section 10 "late
	// packets should be discarded internally" service, driven by the
	// FIFO+ header field.
	DiscardOffset float64

	// OnTransmit, if set, is called when a packet begins transmission —
	// the measurement hook admission control and per-class accounting
	// attach to.
	OnTransmit func(p *packet.Packet, now float64)

	counter      stats.Counter // enqueue attempts / buffer drops
	dropsByClass [3]int64      // buffer drops per service class
	lenByClass   [3]int        // current occupancy per service class
	discarded    int64         // late discards (DiscardOffset)
	txBits       int64
	txPkts       int64 // packets that started transmission (incl. in flight)
	util         *stats.RateMeter
}

// Name returns "from->to".
func (pt *Port) Name() string { return pt.name }

// Index is the port's dense id: its position in network creation order.
// Per-port state (schedulers, admission controllers, profiles) indexes
// slices with it — no pointer-keyed maps, so no map iteration order can
// leak into results.
func (pt *Port) Index() int { return pt.index }

// From returns the node that owns this output port (the link's sender).
func (pt *Port) From() *Node { return pt.node }

// To returns the node at the far end of the link.
func (pt *Port) To() *Node { return pt.dst }

// Scheduler returns the port's scheduler.
func (pt *Port) Scheduler() sched.Scheduler { return pt.sched }

// drainOne takes the scheduler's next packet for a drain (a scheduler swap,
// a link failure), including one that a non-work-conserving scheduler
// (Regulator, StopAndGo) is holding for a future eligibility time: its clock
// is stepped to the next-eligible instant so the held packet surfaces. It
// returns nil when the scheduler is empty, or when it refuses to surface the
// rest (Len/Dequeue/NextEligible disagreeing — a contract violation).
func (pt *Port) drainOne(now float64) *packet.Packet {
	if pt.sched.Len() == 0 {
		return nil
	}
	if p := pt.sched.Dequeue(now); p != nil {
		return p
	}
	if nwc, ok := pt.sched.(sched.NonWorkConserving); ok {
		if t := nwc.NextEligible(now); !math.IsInf(t, 1) {
			return pt.sched.Dequeue(t)
		}
	}
	return nil
}

// SetScheduler replaces the port's scheduler mid-run (a live profile swap),
// migrating the queued backlog into the new scheduler in the old one's
// service order. A non-work-conserving scheduler's held packets are released
// early (drainOne) — the swap re-times service anyway, so that is the least
// surprising outcome. Anything it still refuses to surface is written off
// as buffer drops (the queue-length accounting is corrected, the packets
// themselves are unreachable through the Scheduler interface). The caller
// is responsible for re-registering any per-flow state (reservations) on
// the new scheduler before the swap.
func (pt *Port) SetScheduler(s sched.Scheduler) {
	now := pt.node.eng.Now()
	for p := pt.drainOne(now); p != nil; p = pt.drainOne(now) {
		s.Enqueue(p, now)
	}
	if stranded := pt.sched.Len(); stranded > 0 {
		// Unreachable backlog: correct the port's occupancy so buffer
		// admission is not permanently skewed, and count the loss. The
		// per-class occupancy of packets a scheduler hides cannot be
		// attributed.
		pt.qlen -= stranded
		pt.counter.Dropped += int64(stranded)
	}
	pt.sched = s
}

// Bandwidth returns the link rate in bits/second.
func (pt *Port) Bandwidth() float64 { return pt.bandwidth }

// SetBufferLimit overrides the buffer size in packets.
func (pt *Port) SetBufferLimit(n int) { pt.limit = n }

// SetBandwidth changes the link rate mid-run. The packet currently being
// serialized (if any) finishes at the old rate; the next transmission uses
// the new one. Callers that precomputed fixed delays from the old rate (the
// per-flow queueing-delay normalization) keep their setup-time value. The
// utilization measurement window restarts: windows accumulated at the old
// rate divided by the new bandwidth would mis-report Utilization (a rate cut
// could even read above 100%) for a full measurement span.
func (pt *Port) SetBandwidth(r float64) {
	if r <= 0 {
		panic("topology: bandwidth must be positive")
	}
	if r != pt.bandwidth {
		pt.util.Reset(pt.node.eng.Now())
	}
	pt.bandwidth = r
}

// PropDelay returns the link's propagation delay in seconds.
func (pt *Port) PropDelay() float64 { return pt.propDelay }

// SetPropDelay changes the propagation delay mid-run; packets already on the
// wire keep the old delay. On a link that crosses a shard boundary it also
// re-derives the partition's lookahead. In a sharded run delays change only
// at barriers (control events), and the coordinator reads the lookahead
// after them, so the next window is already sized for the new delay.
func (pt *Port) SetPropDelay(d float64) {
	if d < 0 {
		panic("topology: propagation delay must be non-negative")
	}
	pt.propDelay = d
	if pt.remote {
		pt.node.net.deriveLookahead()
	}
}

// Remote reports whether the link crosses a shard boundary.
func (pt *Port) Remote() bool { return pt.remote }

// Down reports whether the link is failed.
func (pt *Port) Down() bool { return pt.down }

// SetDown fails or restores the link. Failing drops the entire queued
// backlog (counted as buffer drops) and every subsequent arrival until the
// link is restored; a packet mid-serialization still reaches the far end
// (it was already committed to the wire). Restoring resumes normal service
// with whatever rate/delay the port had, re-arming transmission if any
// backlog survived the outage (e.g. a scheduler swap while down migrated
// packets in): without the kick, survivors would sit stranded until the
// next fresh enqueue happened to restart the port.
func (pt *Port) SetDown(down bool) {
	if pt.down == down {
		return
	}
	pt.down = down
	if down {
		pt.flush()
		return
	}
	if !pt.busy && pt.sched.Len() > 0 {
		pt.transmitNext()
	}
}

// flush drops every queued packet (link failure), including packets a
// non-work-conserving scheduler is holding (drainOne): they are counted as
// failure drops and return to the pool instead of leaking. A scheduler that
// still refuses to surface packets keeps them queued: the occupancy mirrors
// stay consistent with Len(), and the restore re-arm serves the remainder.
func (pt *Port) flush() {
	now := pt.node.eng.Now()
	for p := pt.drainOne(now); p != nil; p = pt.drainOne(now) {
		pt.qlen--
		if int(p.Class) < len(pt.lenByClass) {
			pt.lenByClass[p.Class]--
		}
		pt.counter.Dropped++
		if int(p.Class) < len(pt.dropsByClass) {
			pt.dropsByClass[p.Class]++
		}
		packet.Release(p)
	}
}

// Counter returns enqueue/drop counts.
func (pt *Port) Counter() stats.Counter { return pt.counter }

// DropsByClass returns buffer drops for the given service class.
func (pt *Port) DropsByClass(c packet.Class) int64 {
	if int(c) >= len(pt.dropsByClass) {
		return 0
	}
	return pt.dropsByClass[c]
}

// Discarded returns the number of late discards (DiscardOffset policy).
func (pt *Port) Discarded() int64 { return pt.discarded }

// Utilization returns the fraction of link capacity used over the recent
// measurement windows.
func (pt *Port) Utilization(now float64) float64 {
	return pt.util.Rate(now) / pt.bandwidth
}

// TxBits returns lifetime transmitted bits (per-interval utilization curves
// difference successive readings).
func (pt *Port) TxBits() int64 { return pt.txBits }

// TxPackets returns how many packets started transmission on this link,
// including the one currently being serialized. Together with Counter,
// Discarded and the queue occupancy it closes the port's conservation
// identity: Total == Dropped + Discarded + TxPackets + queued.
func (pt *Port) TxPackets() int64 { return pt.txPkts }

// QueueLen returns the port's queued-packet count — the occupancy mirror
// buffer admission uses, which tracks the scheduler's Len() packet for
// packet unless the scheduler breaks its contract (the invariant oracle
// checks exactly that).
func (pt *Port) QueueLen() int { return pt.qlen }

// QueueLenByClass returns the queued-packet count of one service class.
func (pt *Port) QueueLenByClass(c packet.Class) int {
	if int(c) >= len(pt.lenByClass) {
		return 0
	}
	return pt.lenByClass[c]
}

// TotalUtilization returns lifetime transmitted bits divided by capacity
// over elapsed time.
func (pt *Port) TotalUtilization(now float64) float64 {
	if now <= 0 {
		return 0
	}
	return float64(pt.txBits) / (pt.bandwidth * now)
}

func (pt *Port) enqueue(p *packet.Packet) {
	now := pt.node.eng.Now()
	pt.counter.Total++
	if pt.down {
		pt.counter.Dropped++
		if int(p.Class) < len(pt.dropsByClass) {
			pt.dropsByClass[p.Class]++
		}
		packet.Release(p)
		return
	}
	// Buffer admission is class-aware: a guaranteed packet is refused
	// only when the guaranteed class itself fills the buffer. Without
	// this, a best-effort or predicted flood would break the guaranteed
	// service commitment at the buffer even though WFQ protects it at
	// the scheduler (conforming guaranteed flows occupy little buffer,
	// so the soft total limit is at most briefly exceeded).
	full := pt.qlen >= pt.limit
	if p.Class == packet.Guaranteed {
		full = pt.lenByClass[packet.Guaranteed] >= pt.limit
	}
	if full {
		pt.counter.Dropped++
		if int(p.Class) < len(pt.dropsByClass) {
			pt.dropsByClass[p.Class]++
		}
		packet.Release(p)
		return
	}
	if int(p.Class) < len(pt.lenByClass) {
		pt.lenByClass[p.Class]++
	}
	pt.qlen++
	p.ArrivedAt = now
	pt.sched.Enqueue(p, now)
	if !pt.busy {
		pt.transmitNext()
	}
}

// scheduleRetry arms a wake-up for schedulers that hold packets (see
// sched.NonWorkConserving): the scheduler is non-empty but nothing is
// eligible yet.
func (pt *Port) scheduleRetry(now float64) {
	if pt.retryArmed || pt.sched.Len() == 0 {
		return
	}
	nwc, ok := pt.sched.(sched.NonWorkConserving)
	if !ok {
		return
	}
	t := nwc.NextEligible(now)
	if math.IsInf(t, 1) {
		return
	}
	pt.retryArmed = true
	//ispnvet:allow keyedevents: port-local self-tick on the port's own engine at the scheduler's eligibility instant; converting to a keyed or relative form would perturb the published timing of non-work-conserving schedules
	pt.node.eng.At(t, func() {
		pt.retryArmed = false
		if !pt.busy {
			pt.transmitNext()
		}
	})
}

func (pt *Port) transmitNext() {
	if pt.down {
		// A retry event armed before the failure (or a scheduler swap
		// while down) must not put packets on a dead wire; restore
		// re-arms service.
		pt.busy = false
		return
	}
	eng := pt.node.eng
	now := eng.Now()
	var p *packet.Packet
	for {
		p = pt.sched.Dequeue(now)
		if p == nil {
			pt.busy = false
			pt.scheduleRetry(now)
			return
		}
		pt.qlen--
		if int(p.Class) < len(pt.lenByClass) {
			pt.lenByClass[p.Class]--
		}
		if pt.DiscardOffset > 0 && p.JitterOffset > pt.DiscardOffset {
			pt.discarded++
			packet.Release(p)
			continue
		}
		break
	}
	pt.busy = true
	tx := float64(p.Size) / pt.bandwidth
	pt.txBits += int64(p.Size)
	pt.txPkts++
	pt.util.Add(now, float64(p.Size))
	if pt.OnTransmit != nil {
		pt.OnTransmit(p, now)
	}
	eng.ScheduleCall(tx, pt.txDone, p)
}

// onTxDone fires when a packet finishes serialization onto the link: hand
// it to the far end (after propagation, if any) and start the next one.
//
// Propagation deliveries are keyed by the port index (sim.KeyDelivery +
// Index) in sharded AND sequential mode, so same-instant deliveries fire in
// global port order regardless of which engine scheduled them — the
// tie-break that makes sharded runs bit-identical. A remote port schedules
// the delivery on the destination shard's engine: the arrival lies at or
// beyond the end of the current window (propDelay >= lookahead), so it is
// never in the receiver's past.
func (pt *Port) onTxDone(arg any) {
	p := arg.(*packet.Packet)
	p.Hops++
	if pt.propDelay > 0 {
		pt.dst.eng.AtCallKeyed(pt.node.eng.Now()+pt.propDelay, sim.KeyDelivery+uint32(pt.index), pt.deliver, p)
	} else {
		pt.dst.receive(p)
	}
	pt.transmitNext()
}

// --- sharding ---------------------------------------------------------------

// Shard is one partition of a sharded network: a set of nodes sharing one
// event heap. Shards are created by ConfigureShards; a sim.Coordinator
// advances them in lockstep windows.
type Shard struct {
	eng  *sim.Engine
	pool *packet.Pool
}

// Engine returns the shard's engine.
func (s *Shard) Engine() *sim.Engine { return s.eng }

// Pool returns the packet free list the shard's nodes draw from — the
// network's one pool, which every shard shares.
func (s *Shard) Pool() *packet.Pool { return s.pool }

// ConfigureShards partitions the network: assign maps each node (in
// creation order, matching Nodes()) to a shard in [0, nshards). Every node
// in a shard is re-pointed at the shard's fresh engine; the network's
// original engine becomes the control engine (Engine() still returns it),
// on which timeline verbs, churn and trace sampling run between shard
// windows. Links whose endpoints land in different shards become remote
// ports; each must have a positive propagation delay — the minimum over
// them is the partition's conservative lookahead, returned by Lookahead().
// A zero-delay cross-shard link is a configuration error (it would force a
// zero-width synchronization window), so it is diagnosed here rather than
// discovered as a hang.
//
// Call it after the topology is built and before any flow state, source or
// transport endpoint captures a node's engine. It may be called at most
// once.
func (n *Network) ConfigureShards(assign []int, nshards int) error {
	if n.shards != nil {
		return fmt.Errorf("topology: network already sharded")
	}
	if nshards < 1 {
		return fmt.Errorf("topology: need at least 1 shard, got %d", nshards)
	}
	if len(assign) != len(n.order) {
		return fmt.Errorf("topology: shard assignment covers %d nodes, network has %d", len(assign), len(n.order))
	}
	for i, s := range assign {
		if s < 0 || s >= nshards {
			return fmt.Errorf("topology: node %q assigned to shard %d, want [0,%d)", n.order[i].name, s, nshards)
		}
	}
	shards := make([]*Shard, nshards)
	for i := range shards {
		shards[i] = &Shard{eng: sim.New(), pool: n.pool}
	}
	for i, nd := range n.order {
		nd.shard = assign[i]
		nd.eng = shards[assign[i]].eng
	}
	for _, pt := range n.ports {
		if pt.node.shard == pt.dst.shard {
			continue
		}
		if pt.propDelay <= 0 {
			return fmt.Errorf("topology: link %s crosses shards %d->%d with zero propagation delay; cross-shard links need positive delay (the conservative lookahead)",
				pt.name, pt.node.shard, pt.dst.shard)
		}
		pt.remote = true
	}
	n.shards = shards
	n.deriveLookahead()
	return nil
}

// deriveLookahead recomputes the minimum propagation delay over the
// cross-shard links.
func (n *Network) deriveLookahead() {
	n.lookahead = math.Inf(1)
	for _, pt := range n.ports {
		if pt.remote && pt.propDelay < n.lookahead {
			n.lookahead = pt.propDelay
		}
	}
}

// Sharded reports whether ConfigureShards has been applied.
func (n *Network) Sharded() bool { return n.shards != nil }

// Shards returns the partitions created by ConfigureShards (nil before).
func (n *Network) Shards() []*Shard { return n.shards }

// Lookahead returns the minimum cross-shard propagation delay (+Inf with no
// cross-shard links, or before ConfigureShards).
func (n *Network) Lookahead() float64 {
	if n.shards == nil {
		return math.Inf(1)
	}
	return n.lookahead
}
