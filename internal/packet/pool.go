package packet

// Pool is a single-threaded free list of Packet structs, one per network, so
// steady-state simulation allocates zero packets: every packet a source
// generates is one a sink or drop site released earlier.
//
// # Ownership rules
//
// A packet drawn from a Pool is owned by exactly one component at a time,
// and ownership transfers with the packet:
//
//   - Allocation: traffic sources (and TCP endpoints) call Get. A packet
//     obtained from Get is zeroed except for its origin pool.
//   - In flight: ownership passes with the packet — source → edge policer →
//     port buffers → next switch. Whoever holds the packet and decides not
//     to pass it on MUST release it.
//   - Delivery: the topology releases a packet after the flow's sink
//     callback returns. Sinks and taps therefore must not retain the
//     *Packet past their return; copy fields out instead.
//   - Drop sites: every place a packet leaves the simulation other than a
//     sink must call Release — buffer-full drops and late discards
//     (internal/topology), edge-policer drops (internal/source.Policed,
//     core.Flow.Inject), and any experiment code that declines to inject a
//     generated packet.
//
// Release is safe on any packet: packets not drawn from a pool (plain
// &Packet{} literals, as tests use) have no origin and are ignored, so
// pooled and unpooled traffic can share a network.
type Pool struct {
	free []*Packet
	news int64 // fresh allocations (free-list misses)
	gets int64
	puts int64
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed packet owned by the caller.
func (pl *Pool) Get() *Packet {
	pl.gets++
	if k := len(pl.free) - 1; k >= 0 {
		p := pl.free[k]
		pl.free[k] = nil
		pl.free = pl.free[:k]
		p.origin = pl
		return p
	}
	pl.news++
	return &Packet{origin: pl}
}

// Put releases a packet back to this pool. Packets that did not come from
// this pool (including already released ones) are ignored, which makes a
// double Put through Release harmless.
func (pl *Pool) Put(p *Packet) {
	if p == nil || p.origin != pl {
		return
	}
	pl.puts++
	*p = Packet{}
	pl.free = append(pl.free, p)
}

// Stats reports pool traffic: total Gets, Puts, and fresh allocations. In a
// leak-free steady state news stops growing.
func (pl *Pool) Stats() (gets, puts, news int64) { return pl.gets, pl.puts, pl.news }

// Release returns p to the pool it came from, if any. It is the universal
// drop-site/delivery hook: safe on nil and on packets allocated outside any
// pool.
func Release(p *Packet) {
	if p != nil && p.origin != nil {
		p.origin.Put(p)
	}
}
