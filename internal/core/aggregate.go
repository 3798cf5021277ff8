package core

// Predicted-flow aggregation: many predicted flows sharing a (path, class)
// pair collapse into one scheduler entity — the carrier flow — with per-member
// token-bucket policing kept at the edge. The paper's predicted service is
// aggregate by construction ("the delay of a class is shared by all its
// flows"), so inside a FIFO or FIFO+ class the network cannot distinguish k
// member flows from one carrier emitting their union: queueing, measurement
// (ν̂ sees bits, not flow ids) and per-hop class targets are identical. What
// must stay per-member is exactly what the paper keeps at the edge — the
// (r, b) enforcement of Section 8 and the admission bookkeeping of Section 9 —
// and that is what a member costs: a 32-byte memberSlot (the inline token
// bucket) plus, only on a network with admission control, an 8-byte warmup-
// ledger token in the aggregate's ledger column — instead of a registered
// Flow with its route entry, sink, and recorder.
//
// Caveat: under SharingRoundRobin the intra-class scheduler serves *flows*
// round-robin, so members folded into one carrier share a single round-robin
// quantum instead of one each. Aggregation is exact for SharingFIFO and
// SharingFIFOPlus (the paper's design) and approximate under round robin;
// callers who ablate with round-robin sharing should request plain flows.
//
// Carrier flow ids are allocated from the top half of the id space
// (carrierIDBase upward) so they never collide with caller-chosen ids.

import (
	"fmt"

	"ispn/internal/packet"
	"ispn/internal/tokenbucket"
)

// carrierIDBase is the first flow id the aggregation layer allocates for
// carriers. Caller-chosen flow ids live below it.
const carrierIDBase uint32 = 1 << 31

// aggKey identifies one aggregate: every member shares the interned path and
// the predicted class.
type aggKey struct {
	path  PathID
	class uint8
}

// memberSlot is a member's inline token bucket (the Section 8 edge
// enforcement); rate and depth are also what Release hands back. 32 bytes,
// pointer-free: two to a cache line, never straddling one. A free slot is the
// zero slot and a live one has rate != 0 (PredictedSpec.Validate refuses
// r <= 0). Slots are recycled through a free list.
type memberSlot struct {
	rate   float64 // token rate r (bits/s)
	depth  float64 // bucket depth b (bits)
	tokens float64
	last   float64 // last refill time
}

// Aggregate is one carrier flow plus its member slots.
type Aggregate struct {
	net     *Network
	key     aggKey
	carrier *Flow
	members []memberSlot
	// ledgers holds the members' warmup-ledger tokens, indexed like members;
	// nil until a non-zero token is stored (never, with admission off).
	ledgers []uint64
	free    []int32 // recycled member indices
	live    int
	total   float64 // running sum of member token rates
}

// Member is a caller's handle on one aggregated predicted flow. The zero
// Member is invalid. A handle dies at Release: the slot carries no generation
// counter (it has no spare byte for one), so once the slot is claimed again a
// stale handle addresses the new member.
type Member struct {
	agg *Aggregate
	idx int32
}

// nextCarrierID allocates a fresh carrier flow id from the reserved range.
func (n *Network) nextCarrierID() uint32 {
	for {
		id := carrierIDBase + n.carrierSeq
		n.carrierSeq++
		if _, taken := n.flows[id]; !taken {
			return id
		}
	}
}

// RequestPredictedMember asks for predicted service along path in the given
// class, aggregated: the member joins the carrier flow for (path, class),
// creating it on first use. Admission runs per member — each hop sees the
// member's own (r, b, D, L), exactly as RequestPredictedClass would charge it
// — and a refusal at any hop rolls back cleanly, removing the carrier again
// if this member would have been its first. The returned handle polices and
// injects at the edge and releases the member's capacity on Release.
func (n *Network) RequestPredictedMember(path []string, class uint8, spec PredictedSpec) (Member, error) {
	if err := spec.Validate(); err != nil {
		return Member{}, err
	}
	pid := n.InternPath(path)
	ports := n.pathPortsByID(pid)
	if len(ports) == 0 {
		return Member{}, fmt.Errorf("core: predicted flow needs at least one link")
	}
	if k := n.pathClasses(ports); int(class) >= k {
		return Member{}, fmt.Errorf("core: class %d out of range (%d classes on this path)", class, k)
	}
	key := aggKey{path: pid, class: class}
	a := n.aggs[key]
	admitPorts := ports
	if a != nil {
		// The carrier may have been rerouted since creation; new members are
		// admitted on the hops their traffic will actually cross.
		admitPorts = n.portsOf(a.carrier)
	}
	var token uint64
	if n.cfg.AdmissionControl {
		token = n.nextLedgerToken()
		for i, pt := range admitPorts {
			if err := n.admitPredicted(pt, spec, int(class), token); err != nil {
				n.rollbackLedger(admitPorts[:i], token)
				return Member{}, err
			}
		}
	}
	if a == nil {
		a = n.newAggregate(key, spec)
	}
	idx := a.claimSlot()
	a.members[idx] = memberSlot{
		rate:   spec.TokenRate,
		depth:  spec.BucketBits,
		tokens: spec.BucketBits, // buckets start full, like tokenbucket.New
		last:   a.carrier.eng.Now(),
	}
	if token != 0 {
		if int(idx) >= len(a.ledgers) { // the column trails the slots until a token needs it
			a.ledgers = append(a.ledgers, make([]uint64, len(a.members)-len(a.ledgers))...)
		}
		a.ledgers[idx] = token
	}
	a.live++
	a.total += spec.TokenRate
	c := a.carrier
	c.declaredRate = a.total
	c.pspec.TokenRate = a.total
	c.pspec.BucketBits += spec.BucketBits
	if spec.Delay < c.pspec.Delay {
		// The carrier advertises the tightest member target, so a carrier
		// reroute re-runs admission at least as strictly as any member would.
		c.pspec.Delay = spec.Delay
	}
	return Member{agg: a, idx: idx}, nil
}

// newAggregate creates the carrier flow for a key and registers the
// aggregate. The first member's spec seeds the carrier's aggregate spec
// (rate and bucket are accumulated by the caller).
func (n *Network) newAggregate(key aggKey, spec PredictedSpec) *Aggregate {
	ports := n.pathPortsByID(key.path)
	c := &Flow{
		ID:       n.nextCarrierID(),
		PathID:   key.path,
		Class:    packet.Predicted,
		Priority: key.class,
		net:      n,
		bound:    n.advertisedBound(ports, int(key.class)),
		pspec: PredictedSpec{
			// Accumulated by RequestPredictedMember; Delay starts at the
			// first member's target and only tightens.
			Delay: spec.Delay,
			Loss:  spec.Loss,
		},
	}
	// No carrier policer: enforcement is per member, at the slots.
	n.registerFlow(c)
	a := &Aggregate{net: n, key: key, carrier: c}
	if n.aggs == nil {
		n.aggs = make(map[aggKey]*Aggregate)
	}
	n.aggs[key] = a
	n.aggOrder = append(n.aggOrder, a)
	return a
}

// claimSlot returns a free member index, growing the slot slice as needed.
func (a *Aggregate) claimSlot() int32 {
	if k := len(a.free); k > 0 {
		idx := a.free[k-1]
		a.free = a.free[:k-1]
		return idx
	}
	a.members = append(a.members, memberSlot{})
	return int32(len(a.members) - 1)
}

// Inject polices the packet against the member's own token bucket and, if it
// conforms, injects it as the carrier (the network sees one flow). It reports
// whether the packet entered the network. Enforcement counts land on the
// carrier's policer counter — the aggregate's edge statistics.
func (m Member) Inject(p *packet.Packet) bool {
	a := m.agg
	s := &a.members[m.idx]
	c := a.carrier
	now := c.eng.Now()
	// Inline refill/take, same arithmetic as tokenbucket.Bucket.Take.
	if now > s.last {
		s.tokens += (now - s.last) * s.rate
		if s.tokens > s.depth {
			s.tokens = s.depth
		}
		s.last = now
	}
	c.policerCnt.Total++
	size := float64(p.Size)
	if s.tokens < size-tokenbucket.Epsilon {
		c.policerCnt.Dropped++
		packet.Release(p)
		return false
	}
	s.tokens -= size
	if s.tokens < 0 {
		s.tokens = 0
	}
	p.FlowID = c.ID
	p.Class = c.Class
	p.Priority = c.Priority
	p.Route = c.route
	c.ingress.Inject(p)
	return true
}

// Flow returns the carrier flow the member rides (shared by all members of
// the aggregate) — delivery counts, delays and bounds are aggregate-level.
func (m Member) Flow() *Flow { return m.agg.carrier }

// Rate returns the member's declared token rate, or 0 once released.
func (m Member) Rate() float64 { return m.agg.members[m.idx].rate }

// Release departs the member: its warmup-ledger claim is handed back, its
// declared rate and bucket leave the carrier's aggregate spec, and its slot
// is recycled. The last member's departure releases the carrier flow itself.
// Releasing twice in a row is a no-op, but only until the slot is claimed
// again: from then on the stale handle releases the new member.
func (m Member) Release() {
	a := m.agg
	s := &a.members[m.idx]
	if s.rate == 0 {
		return
	}
	n := a.net
	c := a.carrier
	if int(m.idx) < len(a.ledgers) && a.ledgers[m.idx] != 0 {
		n.releaseLedger(n.portsOf(c), []uint64{a.ledgers[m.idx]})
		a.ledgers[m.idx] = 0
	}
	a.total -= s.rate
	c.pspec.BucketBits -= s.depth
	a.live--
	*s = memberSlot{}
	a.free = append(a.free, m.idx)
	if a.live == 0 {
		a.total = 0
		n.Release(c.ID)
		delete(n.aggs, a.key)
		for i, x := range n.aggOrder {
			if x == a {
				n.aggOrder = append(n.aggOrder[:i], n.aggOrder[i+1:]...)
				break
			}
		}
		return
	}
	c.declaredRate = a.total
	c.pspec.TokenRate = a.total
}

// Aggregates returns the live aggregates in creation order — a deterministic
// snapshot for sweeps and checkers.
func (n *Network) Aggregates() []*Aggregate {
	return append([]*Aggregate(nil), n.aggOrder...)
}

// Carrier returns the aggregate's carrier flow.
func (a *Aggregate) Carrier() *Flow { return a.carrier }

// Members returns the number of live members.
func (a *Aggregate) Members() int { return a.live }

// DeclaredTotal returns the running sum of member token rates — what the
// carrier declares to the network.
func (a *Aggregate) DeclaredTotal() float64 { return a.total }

// MemberRateSum recomputes the member rate sum from the live slots. The
// invariant oracle cross-checks it against DeclaredTotal and the carrier's
// declared rate: aggregation must never let the bookkeeping drift from its
// members.
func (a *Aggregate) MemberRateSum() float64 {
	sum := 0.0
	for i := range a.members {
		sum += a.members[i].rate // a free slot adds +0
	}
	return sum
}

// SkewTotalForTest corrupts the running total by delta — a hook for tests
// that prove the aggregate-consistency checker has teeth.
func (a *Aggregate) SkewTotalForTest(delta float64) {
	a.total += delta
	a.carrier.declaredRate = a.total
	a.carrier.pspec.TokenRate = a.total
}
