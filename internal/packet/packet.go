// Package packet defines the packet model shared by every subsystem: the
// service class and priority a packet travels under, the FIFO+ jitter-offset
// field the paper proposes "be defined as part of the packet header"
// (Section 12), and the simulator's own bookkeeping (timestamps, the hop
// count, the flow's route).
//
// Packets on the simulator fast path are recycled through the network's one
// [Pool] rather than garbage collected; see the Pool documentation for the
// ownership rules (who allocates, who releases, and the obligations of every
// drop site).
package packet

import "fmt"

// Class is the service commitment a packet travels under (paper Section 3).
type Class uint8

const (
	// Guaranteed service: worst-case Parekh-Gallager delay bounds,
	// isolated from all other traffic by WFQ.
	Guaranteed Class = iota
	// Predicted service: measurement-based bounds, FIFO+ sharing inside a
	// priority class.
	Predicted
	// Datagram service: best effort, lowest priority.
	Datagram
)

func (c Class) String() string {
	switch c {
	case Guaranteed:
		return "guaranteed"
	case Predicted:
		return "predicted"
	case Datagram:
		return "datagram"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Packet is one packet in flight. Sizes are in bits, matching the paper's
// units (1000-bit packets on 1 Mbit/s links give 1 ms transmission time).
type Packet struct {
	// FlowID, Class, Priority and Hops share one word, which keeps the
	// struct at 72 bytes with Route in it.
	FlowID uint32
	Class  Class
	// Priority is the predicted-service priority level at the current
	// switch: 0 is the highest real-time class; datagram traffic sits
	// below every predicted class regardless of this value.
	Priority uint8
	// Hops counts inter-switch links traversed so far (it wraps at 256).
	// Besides being a statistic it is the cursor into Route: on the path
	// the route was installed over, the switch a packet is at is the
	// route's hop number Hops.
	Hops uint8

	Seq  uint64
	Size int // bits

	// CreatedAt is the generation time at the source.
	CreatedAt float64
	// ArrivedAt is the enqueue time at the current hop; each output port
	// rewrites it. Used for per-hop queueing delay measurement.
	ArrivedAt float64
	// JitterOffset is the FIFO+ header field: the accumulated difference
	// (seconds, signed) between the delay this packet actually received
	// at upstream hops and the class-average delay there. A switch
	// computing ArrivedAt-JitterOffset recovers when the packet "should
	// have" arrived under average service.
	JitterOffset float64

	// Route is the flow's forwarding state, a *topology.Route (typed any
	// because topology imports this package). Whoever builds the packet may
	// stamp it — core.Flow.Inject, aggregation members and TCP endpoints
	// do; a packet injected without one picks up the route
	// topology.Network.InstallRoute installed for its FlowID, or is
	// stranded. The packet keeps the route alive: a flow released while its
	// packets are in flight still has them delivered.
	Route any

	// origin is the Pool the packet was drawn from (nil for packets
	// allocated outside any pool).
	origin *Pool
}

// ExpectedArrival is the FIFO+ expected arrival time at the current hop: the
// time the packet would have arrived had it received class-average service at
// every upstream hop.
func (p *Packet) ExpectedArrival() float64 { return p.ArrivedAt - p.JitterOffset }

func (p *Packet) String() string {
	return fmt.Sprintf("pkt{flow=%d seq=%d %s prio=%d size=%db}", p.FlowID, p.Seq, p.Class, p.Priority, p.Size)
}
