// Package topology models the simulated packet network: switches connected
// by directed links, each outgoing link fronted by an output port that owns a
// scheduling pipeline, a finite packet buffer (the paper's switches buffer
// 200 packets), and its own bandwidth and propagation delay — links need not
// be homogeneous (scenario dumbbells hang fast access links off a slow
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

// Receiver consumes the packets of a flow that has reached its final switch.
// A Sink is one; so is core's Flow, which needs no closure to be one.
type Receiver interface{ Deliver(p *packet.Packet) }

// Sink is a function Receiver.
type Sink func(p *packet.Packet)

// Deliver implements Receiver.
func (s Sink) Deliver(p *packet.Packet) { s(p) }

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
	// portSlab is the block the next port is cut from (see newPort).
	portSlab []Port

	// byID holds the routes InstallRoute installed, by flow id, for packets
	// that reach Node.Inject without a Route: bench's port probe
	// (bench/probes.go) builds its packets that way. The simulator's flows
	// and connections own their Routes (InstallRouteAlong) and stamp them
	// into every packet, so none of them is kept here.
	byID map[uint32]*Route

	shards    []*Shard
	lookahead float64 // min cross-shard propagation delay (+Inf if none)
}

// NewNetwork returns an empty network on the given engine.
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{
		eng:   eng,
		pool:  packet.NewPool(),
		nodes: make(map[string]*Node),
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

// AddLink creates a directed link from -> to with the given scheduling
// pipeline, bandwidth (bits/s) and propagation delay (seconds), and returns
// its output port at the sending node.
func (n *Network) AddLink(from, to string, pl *sched.Pipeline, bandwidth, propDelay float64) *Port {
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
	p := n.newPort()
	*p = Port{
		name:      from + "->" + to,
		index:     len(n.ports),
		node:      src,
		dst:       dst,
		pipe:      pl,
		bandwidth: bandwidth,
		propDelay: propDelay,
		limit:     DefaultBufferPackets,
	}
	n.ports = append(n.ports, p)
	// A packet-hop is one event — the transmit-complete on a zero-delay
	// link, the delivery on a delayed one — scheduled through the engine's
	// closure-free ScheduleCall path. The delivery carries the packet and
	// needs the far end, so it is the one handler bound once per port; the
	// others are package functions taking the port (see portTxDone).
	p.deliver = func(arg any) { p.dst.receive(arg.(*packet.Packet)) }
	src.ports[to] = p
	src.portOrder = append(src.portOrder, p)
	return p
}

// Port blocks start at minPortBlock ports and double up to maxPortBlock.
const (
	minPortBlock = 4
	maxPortBlock = 64
)

// newPort returns a zero Port cut from the network's current block, starting
// a new block when it is used up. A block is never grown in place, so a
// port's address is stable; like the engine's event node blocks, the blocks
// turn one allocation per port into one per block.
func (n *Network) newPort() *Port {
	if len(n.portSlab) == cap(n.portSlab) {
		n.portSlab = make([]Port, 0, min(max(2*cap(n.portSlab), minPortBlock), maxPortBlock))
	}
	n.portSlab = n.portSlab[:len(n.portSlab)+1]
	return &n.portSlab[len(n.portSlab)-1]
}

// Route is the forwarding state of one flow: its hops in path order, each
// naming a switch and the output port the flow leaves it by (nil where the
// flow terminates), and the receivers registered at its switches. It is the
// only forwarding state there is: every packet of the flow carries it in
// packet.Packet.Route, and a switch reads nothing else. The Route lives as
// long as its owner — core's Flow, a TCP connection — and the packets
// carrying it, so a packet still in the network after its flow departed is
// forwarded and delivered as before.
//
// The first routeInline hops and the first receiver are stored inside the
// Route, so a route that short costs no allocation beyond the struct, and
// none at all when the caller embeds it (InstallRouteAlong). A Route points
// into itself and must not be copied once it has a hop.
//
// A switch appears in at most one hop. Packet.Hops — links traversed so far
// — is the cursor: on the path the route was installed over it is exactly
// the index of the switch the packet is at, and find scans the handful of
// hops when it is not (a packet injected mid-path, or one that was in flight
// when the flow was rerouted).
type Route struct {
	hops   []hop
	sinks  []routeSink // the receivers, usually one: at the switch the flow terminates
	inline [routeInline]hop
	sink   [1]routeSink
}

// routeSink is a receiver registered at one of the route's switches.
type routeSink struct {
	at *Node
	s  Receiver
}

// sinkAt returns the receiver registered at nd, or nil.
func (r *Route) sinkAt(nd *Node) Receiver {
	for i := range r.sinks {
		if r.sinks[i].at == nd {
			return r.sinks[i].s
		}
	}
	return nil
}

// routeInline is the hop storage a Route carries: switches, so a route of up
// to routeInline-1 links. Every path of the benchmark churn's 64-node chordal
// ring fits.
const routeInline = 8

type hop struct {
	at  *Node
	out *Port
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
		if r.hops == nil {
			r.hops = r.inline[:0]
		}
		i = len(r.hops)
		r.hops = append(r.hops, hop{at: nd})
	}
	return i
}

// InstallRoute returns a new Route along path (a list of node names, first =
// ingress): each node forwards to the next. Every consecutive pair must be
// linked. The route is also kept by flow id, so a packet injected without a
// Route picks it up at Node.Inject, and Node.SetSink finds it; a later
// InstallRoute for the id replaces it there.
func (n *Network) InstallRoute(flowID uint32, path []string) *Route {
	if len(path) == 0 {
		panic("topology: empty route")
	}
	ingress, ok := n.nodes[path[0]]
	if !ok {
		panic(fmt.Sprintf("topology: unknown node %q in route", path[0]))
	}
	r := new(Route)
	n.InstallRouteAlong(r, flowID, ingress, n.PathPorts(path))
	if n.byID == nil {
		n.byID = make(map[uint32]*Route)
	}
	n.byID[flowID] = r
	return r
}

// InstallRouteAlong installs a path into a Route the caller owns, for a
// caller that has already resolved the path: the flow enters at ingress and
// leaves each switch by the next of ports (empty for a flow that terminates
// where it enters). flowID only names the flow in a panic.
//
// Installing over a flow's existing route changes that Route in place, so
// packets already carrying it see the change: every switch on the new path
// gets its new output port and moves to the front in path order, the new
// terminal's port is cleared, and a switch only the old path visited keeps
// its hop, stale port included. A packet queued upstream of a switch both
// paths share therefore follows the new next hop from there, while one
// already on the abandoned branch keeps going the old way — into the failed
// link, when a failure caused the reroute. Receivers stay where
// SetReceiver put them.
func (n *Network) InstallRouteAlong(r *Route, flowID uint32, ingress *Node, ports []*Port) {
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
}

// SetReceiver registers s as the consumer of the route's packets that reach
// nd — normally the switch where the route ends. A switch takes one
// receiver per route.
func (r *Route) SetReceiver(nd *Node, s Receiver) {
	if r.sinkAt(nd) != nil {
		panic(fmt.Sprintf("topology: route already has a receiver at %s", nd.name))
	}
	r.hopFor(nd)
	if r.sinks == nil {
		r.sinks = r.sink[:0]
	}
	r.sinks = append(r.sinks, routeSink{at: nd, s: s})
}

// PathPorts returns the output ports along a path, in order. An unknown node
// or a missing link panics; ResolvePath reports it instead.
func (n *Network) PathPorts(path []string) []*Port {
	ports, err := n.ResolvePath(path)
	if err != nil {
		panic(err.Error())
	}
	return ports
}

// ResolvePath returns the output ports along a path, in order, or an error
// naming the first unknown node or missing link. A path of one switch has no
// ports, but its switch must exist.
func (n *Network) ResolvePath(path []string) ([]*Port, error) {
	if len(path) == 1 && n.nodes[path[0]] == nil {
		return nil, fmt.Errorf("topology: unknown node %q", path[0])
	}
	if len(path) < 2 {
		return nil, nil
	}
	ports := make([]*Port, 0, len(path)-1)
	for i := 0; i < len(path)-1; i++ {
		nd := n.nodes[path[i]]
		if nd == nil {
			return nil, fmt.Errorf("topology: unknown node %q", path[i])
		}
		p := nd.ports[path[i+1]]
		if p == nil {
			return nil, fmt.Errorf("topology: no link %s->%s", path[i], path[i+1])
		}
		ports = append(ports, p)
	}
	return ports, nil
}

// FixedDelayAlong returns the constant (non-queueing) delay a packet of
// sizeBits experiences across ports: per-hop store-and-forward transmission
// plus propagation. Queueing delay of a delivered packet is total delay
// minus this.
func FixedDelayAlong(ports []*Port, sizeBits int) float64 {
	fixed := 0.0
	for _, p := range ports {
		fixed += float64(sizeBits)/p.bandwidth + p.propDelay
	}
	return fixed
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

// SetSink registers s for the packets of the flow InstallRoute routed by id
// that reach this node.
func (nd *Node) SetSink(flowID uint32, s Sink) {
	r := nd.net.byID[flowID]
	if r == nil {
		panic(fmt.Sprintf("topology: sink for flow %d, which InstallRoute never routed", flowID))
	}
	r.SetReceiver(nd, s)
}

// Inject introduces a packet at this node, its ingress (the host-to-switch
// link is infinitely fast in the paper's model). A packet without a Route
// picks up the one InstallRoute installed for its flow id.
func (nd *Node) Inject(p *packet.Packet) {
	if p.Route == nil {
		p.Route = nd.net.byID[p.FlowID] // a nil *Route when none: stranded
	}
	nd.receive(p)
}

// receive forwards or delivers a packet arriving at this node by the Route
// it carries. Delivered packets are released back to the pool after the
// receiver returns, so receivers must not retain them.
func (nd *Node) receive(p *packet.Packet) {
	r, _ := p.Route.(*Route)
	var s Receiver
	if r != nil {
		if i := r.find(nd, int(p.Hops)); i >= 0 {
			if out := r.hops[i].out; out != nil {
				out.enqueue(p)
				return
			}
			s = r.sinkAt(nd)
		}
	}
	if s == nil {
		panic(fmt.Sprintf("topology: packet for flow %d stranded at %s", p.FlowID, nd.name))
	}
	s.Deliver(p)
	packet.Release(p)
}

// Port is the output side of a directed link: a scheduling pipeline, a
// buffer limit and a transmitter.
//
// A link is a fixed delay line, so a packet's arrival at the far end is
// known when its transmission starts: a port on a delayed link schedules the
// delivery then, and the instant its wire goes free is only a reserved slot
// in the engine's order (sim.Engine.Reserve). The slot becomes the
// wire-free event — which starts the next transmission — only if a packet
// is queued behind the one on the wire: at once if the queue is non-empty
// when the transmission starts, or when a packet is enqueued before the run
// reaches the slot (sim.Engine.Claim). Otherwise no event runs, and the
// port is idle from the slot's instant on. A delayed hop is one event; a
// backlog adds the wire-free event. The slot holds the position a wire-free
// event scheduled at the transmission start would have, so same-instant
// order does not depend on whether it is claimed. A zero-delay port keeps
// one combined transmit-complete event that hands the packet over and
// starts the next.
type Port struct {
	name       string
	index      int
	node       *Node
	dst        *Node
	pipe       *sched.Pipeline
	bandwidth  float64
	propDelay  float64
	down       bool
	limit      int
	qlen       int  // mirrors pipe.Len(), avoiding a call into the pipeline per packet
	retryArmed bool // a wake-up is scheduled for a packet the pipeline holds
	remote     bool // link crosses a shard boundary (set by ConfigureShards)

	// txArmed reports that the transmit-complete (zero-delay) or wire-free
	// event is on the heap; wire is the delayed port's wire-free slot,
	// which keeps the port busy until the run reaches it (see busy).
	txArmed bool
	wire    sim.Slot
	// onWire is the packet a zero-delay port is serializing: its
	// transmit-complete hands it to the far end.
	onWire *packet.Packet

	// deliver is the prebound propagation-arrival event callback (see
	// AddLink).
	deliver func(any)

	// DiscardOffset, if positive, drops packets whose accumulated
	// jitter offset exceeds it at dequeue time — the Section 10 "late
	// packets should be discarded internally" service, driven by the
	// FIFO+ header field.
	DiscardOffset float64

	onTx         []func(*packet.Packet, float64) // OnTransmit's observers, in order
	counter      stats.Counter                   // enqueue attempts / buffer drops
	dropsByClass [3]int64                        // buffer drops per service class
	lenByClass   [3]int                          // current occupancy per service class
	discarded    int64                           // late discards (DiscardOffset)
	txBits       int64
	txPkts       int64 // packets that started transmission (incl. in flight)
}

// Name returns "from->to".
func (pt *Port) Name() string { return pt.name }

// OnTransmit adds an observer, run after the earlier ones, of each packet
// that begins transmission: admission control and accounting hook here.
func (pt *Port) OnTransmit(fn func(*packet.Packet, float64)) { pt.onTx = append(pt.onTx, fn) }

// Index is the port's dense id: its position in network creation order.
// Per-port state (admission controllers, the invariant oracle's readings)
// indexes slices with it — no pointer-keyed maps, so no map iteration order
// can leak into results.
func (pt *Port) Index() int { return pt.index }

// From returns the node that owns this output port (the link's sender).
func (pt *Port) From() *Node { return pt.node }

// To returns the node at the far end of the link.
func (pt *Port) To() *Node { return pt.dst }

// Pipeline returns the port's scheduling pipeline; its Profile is the
// port's effective (normalized) profile.
func (pt *Port) Pipeline() *sched.Pipeline { return pt.pipe }

// drainOne takes the pipeline's next packet for a drain (a pipeline swap, a
// link failure), including one a stopandgo pipeline is holding for a future
// eligibility time: it is dequeued at its next-eligible instant so the held
// packet surfaces. It returns nil when the pipeline is empty.
func (pt *Port) drainOne(now float64) *packet.Packet {
	if pt.pipe.Len() == 0 {
		return nil
	}
	if p := pt.pipe.Dequeue(now); p != nil {
		return p
	}
	return pt.pipe.Dequeue(pt.pipe.NextEligible(now))
}

// SetPipeline replaces the port's pipeline mid-run (a live profile swap),
// migrating the queued backlog into the new pipeline in the old one's
// service order. Packets a stopandgo pipeline holds are released early
// (drainOne) — the swap re-times service anyway, so that is the least
// surprising outcome. The caller is responsible for re-registering any
// per-flow state (reservations) on the new pipeline before the swap.
func (pt *Port) SetPipeline(pl *sched.Pipeline) {
	now := pt.node.eng.Now()
	for p := pt.drainOne(now); p != nil; p = pt.drainOne(now) {
		pl.Enqueue(p, now)
	}
	pt.pipe = pl
}

// Bandwidth returns the link rate in bits/second.
func (pt *Port) Bandwidth() float64 { return pt.bandwidth }

// SetBufferLimit overrides the buffer size in packets.
func (pt *Port) SetBufferLimit(n int) { pt.limit = n }

// SetBandwidth changes the link rate mid-run, the port's and its pipeline's
// (sched.Pipeline.SetLinkRate, which panics if r does not cover the
// pipeline's reservations). The packet currently being serialized (if any)
// finishes at the old rate; the next transmission uses the new one. Callers
// that precomputed fixed delays from the old rate (the per-flow
// queueing-delay normalization) keep their setup-time value.
func (pt *Port) SetBandwidth(r float64) {
	if r <= 0 {
		panic("topology: bandwidth must be positive")
	}
	pt.pipe.SetLinkRate(r, pt.node.eng.Now())
	pt.bandwidth = r
}

// PropDelay returns the link's propagation delay in seconds.
func (pt *Port) PropDelay() float64 { return pt.propDelay }

// Remote reports whether the link crosses a shard boundary.
func (pt *Port) Remote() bool { return pt.remote }

// Down reports whether the link is failed.
func (pt *Port) Down() bool { return pt.down }

// SetDown fails or restores the link. Failing drops the entire queued
// backlog (counted as buffer drops) and every subsequent arrival until the
// link is restored; a packet mid-serialization still reaches the far end
// (it was already committed to the wire). Restoring resumes normal service
// with whatever rate/delay the port had. The port comes back empty — the
// failure drained every kind and dropped every arrival while down — so
// the next enqueue starts transmission.
func (pt *Port) SetDown(down bool) {
	if pt.down == down {
		return
	}
	pt.down = down
	if down {
		pt.flush()
	}
}

// flush drops every queued packet (link failure), including packets a
// stopandgo pipeline is holding (drainOne): they are counted as failure
// drops and return to the pool instead of leaking.
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

// TxBits returns lifetime transmitted bits (per-interval utilization curves
// difference successive readings).
func (pt *Port) TxBits() int64 { return pt.txBits }

// TxPackets returns how many packets started transmission on this link,
// including the one currently being serialized. Together with Counter,
// Discarded and the queue occupancy it closes the port's conservation
// identity: Total == Dropped + Discarded + TxPackets + queued.
func (pt *Port) TxPackets() int64 { return pt.txPkts }

// QueueLen returns the port's queued-packet count — the occupancy mirror
// buffer admission uses, which tracks the pipeline's Len() packet for
// packet unless the pipeline breaks its contract (the invariant oracle
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
	eng := pt.node.eng
	now := eng.Now()
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
	pt.pipe.Enqueue(p, now)
	switch {
	case pt.txArmed:
		// The wire-free event will send it.
	case !eng.Reached(pt.wire):
		// The first packet queued behind the one on the wire: the
		// wire-free instant becomes an event.
		pt.txArmed = true
		eng.Claim(pt.wire, portTxDone, pt)
	default:
		pt.transmitNext()
	}
}

// busy reports whether a packet is still being serialized onto the link.
func (pt *Port) busy() bool { return pt.txArmed || !pt.node.eng.Reached(pt.wire) }

// scheduleRetry arms a wake-up for a pipeline that holds packets (the
// stopandgo kind): Dequeue came back empty, so if the pipeline is non-empty
// nothing queued is eligible yet.
func (pt *Port) scheduleRetry(now float64) {
	if pt.retryArmed || pt.pipe.Len() == 0 {
		return
	}
	pt.retryArmed = true
	pt.node.eng.AtCallKeyed(pt.pipe.NextEligible(now), sim.KeyData, portRetry, pt)
}

// portRetry is the eligibility wake-up scheduleRetry arms for port arg.
func portRetry(arg any) {
	pt := arg.(*Port)
	pt.retryArmed = false
	if !pt.busy() {
		pt.transmitNext()
	}
}

// transmitNext starts the next transmission on an idle port: the pipeline's
// next packet goes on the wire, and the port arranges to be woken when the
// wire goes free — by its transmit-complete event on a zero-delay link, and
// on a delayed one by the wire-free slot (see Port).
func (pt *Port) transmitNext() {
	if pt.down {
		// A retry event armed before the failure (or a pipeline swap
		// while down) must not put packets on a dead wire. The failure
		// emptied the pipeline, so nothing waits for the restore.
		return
	}
	eng := pt.node.eng
	now := eng.Now()
	var p *packet.Packet
	for {
		p = pt.pipe.Dequeue(now)
		if p == nil {
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
	tx := float64(p.Size) / pt.bandwidth
	pt.txBits += int64(p.Size)
	pt.txPkts++
	for _, fn := range pt.onTx {
		fn(p, now)
	}
	if pt.propDelay <= 0 {
		pt.txArmed = true
		pt.onWire = p
		eng.ScheduleCall(tx, portTxDone, pt)
		return
	}
	// The packet is on the wire: its last bit leaves at free and reaches
	// the far end the propagation delay later.
	//
	// Propagation deliveries are keyed by the port index (sim.KeyDelivery
	// + Index) in sharded AND sequential mode, so same-instant deliveries
	// fire in global port order regardless of which engine scheduled them
	// — the tie-break that makes sharded runs bit-identical. A remote port
	// schedules the delivery on the destination shard's engine: the arrival
	// lies at or beyond the end of the current window (tx + propDelay >=
	// lookahead), so it is never in the receiver's past.
	p.Hops++
	free := now + tx
	pt.dst.eng.AtCallKeyed(free+pt.propDelay, sim.KeyDelivery+uint32(pt.index), pt.deliver, p)
	if pt.qlen > 0 || !(free > now) {
		// A backlog waits for the wire, or a zero-length transmission
		// frees it at this instant (a slot must lie after the clock).
		pt.txArmed = true
		eng.ScheduleCall(tx, portTxDone, pt)
		return
	}
	pt.wire = eng.Reserve(free, sim.KeyData)
}

// portTxDone fires when the wire of port arg goes free: on a zero-delay link
// the packet it was serializing reaches the far end now; on a delayed one
// the packet's delivery is already scheduled (transmitNext). Either way it
// starts the next transmission.
func portTxDone(arg any) {
	pt := arg.(*Port)
	pt.txArmed = false
	if p := pt.onWire; p != nil {
		pt.onWire = nil
		p.Hops++
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
	n.lookahead = math.Inf(1)
	for _, pt := range n.ports {
		if pt.node.shard == pt.dst.shard {
			continue
		}
		if pt.propDelay <= 0 {
			return fmt.Errorf("topology: link %s crosses shards %d->%d with zero propagation delay; cross-shard links need positive delay (the conservative lookahead)",
				pt.name, pt.node.shard, pt.dst.shard)
		}
		pt.remote = true
		n.lookahead = min(n.lookahead, pt.propDelay)
	}
	n.shards = shards
	return nil
}

// Sharded reports whether ConfigureShards has been applied.
func (n *Network) Sharded() bool { return n.shards != nil }

// Shards returns the partitions created by ConfigureShards (nil before).
func (n *Network) Shards() []*Shard { return n.shards }

// Lookahead returns the minimum cross-shard propagation delay that
// ConfigureShards found (+Inf with no cross-shard links).
func (n *Network) Lookahead() float64 { return n.lookahead }
