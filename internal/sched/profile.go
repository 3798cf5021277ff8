package sched

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ispn/internal/packet"
)

// This file is the per-port scheduling profile layer: instead of one
// network-global discipline, every output port carries a Profile describing
// the pipeline it runs — the unit of deployment the paper's incremental
// rollout story needs (FIFO+'s cross-hop jitter sharing only pays off where
// it is actually deployed). A table of named builders turns a Profile into
// the Pipeline of a single port; the network core drives reservations,
// admission and bound math through that one type without knowing which
// discipline is behind it.

// Sharing selects the sharing discipline inside each predicted class of a
// unified pipeline.
type Sharing int

const (
	// SharingFIFOPlus is the paper's design (FIFO+, Section 6).
	SharingFIFOPlus Sharing = iota
	// SharingFIFO is plain FIFO (no cross-hop correlation).
	SharingFIFO
	// SharingRoundRobin is per-flow round robin (the Jacobson–Floyd
	// alternative of Section 11).
	SharingRoundRobin
)

// String names the sharing mode the way scenario files spell it.
func (s Sharing) String() string {
	switch s {
	case SharingFIFO:
		return "fifo"
	case SharingRoundRobin:
		return "rr"
	default:
		return "fifoplus"
	}
}

// Pipeline kind names, as used in the registry and the .ispn grammar.
const (
	KindUnified      = "unified"
	KindWFQ          = "wfq"
	KindFIFO         = "fifo"
	KindFIFOPlus     = "fifoplus"
	KindVirtualClock = "virtualclock"
	KindDRR          = "drr"
	KindEDD          = "edd"
	KindStopAndGo    = "stopandgo"
)

// NoDatagramQuota is the DatagramQuota sentinel meaning "reserve nothing for
// datagram traffic": real-time reservations may take the whole link. The
// zero value means "use the default" (0.10), so an explicit zero quota needs
// this sentinel (any negative value works; this constant is the documented
// spelling).
const NoDatagramQuota = -1.0

// DefaultDatagramQuota is the paper's datagram reservation (10% of each
// link), used when a profile leaves DatagramQuota zero.
const DefaultDatagramQuota = 0.10

// Profile describes the scheduling pipeline of one output port: the
// discipline kind, the intra-class sharing mode (unified pipelines), the
// per-hop predicted class delay targets, and the datagram reservation. The
// zero value of every field selects the paper's default, so Profile{} is the
// paper's unified scheduler.
type Profile struct {
	// Kind names the pipeline builder ("" = KindUnified). See
	// PipelineKinds for the registered set.
	Kind string
	// Sharing selects the discipline inside each predicted class
	// (unified pipelines only).
	Sharing Sharing
	// ClassTargets are the per-hop a priori delay targets Dᵢ of each
	// predicted class, in seconds, highest priority first; their length
	// is the port's predicted class count. Empty selects the paper's
	// widely spaced defaults (32 ms, 320 ms). The edd and stopandgo kinds
	// read the first as their one per-hop parameter: Delay-EDD's local
	// delay budget, Stop-and-Go's frame length (TargetFor charges a
	// stopandgo hop two frames). Profiles share target slices, so they
	// are read, never written in place.
	ClassTargets []float64
	// DatagramQuota is the fraction of the link reserved for datagram
	// traffic: 0 means the paper's default (0.10), NoDatagramQuota (any
	// negative value) means no reservation at all.
	DatagramQuota float64
	// MaxPacketBits is the largest packet, used for DRR quanta and the
	// per-hop packetization term of the Parekh–Gallager bound (0 = 1000,
	// the paper's packet size).
	MaxPacketBits int
}

// Normalize fills every defaulted field in place and returns the profile:
// Kind "" becomes KindUnified, empty targets become the paper's two widely
// spaced classes, zero quota becomes DefaultDatagramQuota (negative stays as
// the no-reservation sentinel), zero packet size becomes 1000 bits.
func (p Profile) Normalize() Profile {
	if p.Kind == "" {
		p.Kind = KindUnified
	}
	if len(p.ClassTargets) == 0 {
		p.ClassTargets = defaultClassTargets[:]
	}
	if p.DatagramQuota == 0 {
		p.DatagramQuota = DefaultDatagramQuota
	}
	if p.MaxPacketBits == 0 {
		p.MaxPacketBits = 1000
	}
	return p
}

// defaultClassTargets are the paper's two widely spaced predicted classes,
// the targets of a profile that names none. Every such normalized profile
// shares this array, which is why targets are never written in place.
var defaultClassTargets = [2]float64{0.032, 0.32}

// Classes returns the number of predicted classes the profile declares.
func (p Profile) Classes() int { return len(p.ClassTargets) }

// Quota returns the effective datagram reservation: DatagramQuota with the
// negative no-reservation sentinel mapped to 0.
func (p Profile) Quota() float64 {
	if p.DatagramQuota < 0 {
		return 0
	}
	return p.DatagramQuota
}

// TargetFor returns the per-hop delay target of the given predicted class,
// clamping out-of-range classes to the lowest-priority one — the same clamp
// the priority classifier applies to the packet header, so bound math and
// forwarding agree at ports with fewer classes than the flow requested. A
// stopandgo port holds a packet to the end of its arrival frame and sends it
// within the next, so every class's target there is two frames.
func (p Profile) TargetFor(class int) float64 {
	if p.Kind == KindStopAndGo {
		return 2 * p.ClassTargets[0]
	}
	if class < 0 {
		class = 0
	}
	if class >= len(p.ClassTargets) {
		class = len(p.ClassTargets) - 1
	}
	return p.ClassTargets[class]
}

// Validate reports whether the normalized profile is buildable: a registered
// kind, positive class targets, a quota below 1.
func (p Profile) Validate() error {
	if _, ok := pipelines[p.Kind]; !ok {
		return fmt.Errorf("sched: unknown pipeline kind %q (kinds: %s)", p.Kind, kindList())
	}
	for i, d := range p.ClassTargets {
		if d <= 0 {
			return fmt.Errorf("sched: class target %d must be positive, got %v", i, d)
		}
	}
	if p.DatagramQuota >= 1 {
		return fmt.Errorf("sched: datagram quota must be below 1, got %v", p.DatagramQuota)
	}
	if p.MaxPacketBits < 0 {
		return fmt.Errorf("sched: max packet size must be positive, got %v", p.MaxPacketBits)
	}
	return nil
}

// Pipeline is the scheduling stack of one output port, built from a Profile
// by NewPipeline: the Scheduler the port dequeues from, plus the reservation
// and measurement hooks the service interface needs. Every kind is this one
// type; a kind is only what its builder puts in the fields.
//
// The reserving kinds (unified, wfq, virtualclock) put a rate scheduler
// under the port: guaranteed flows are isolated at their clock rates and
// pseudo flow 0 takes the leftover µ − Σ r_α. The unified kind makes the
// Section 7 sharing stack flow 0's child (see unifiedStack). The wfq kind's
// flow 0 is one plain queue — no priority classes, no FIFO+: the "circuits
// only" end of the deployment spectrum, a WAN core that sells reservations
// but has not deployed predicted service. The virtualclock kind puts
// Zhang's real-time per-flow clocks underneath instead of virtual time.
//
// The classless kinds (fifo, fifoplus, drr, edd, stopandgo) serve every
// packet from one scheduler and cannot reserve clock rates:
// SupportsGuaranteed is false, and the core refuses guaranteed requests
// crossing them — an incremental deployment really does lose the hard
// commitment at un-upgraded hops.
type Pipeline struct {
	prof  Profile
	queue Scheduler // what the port serves: the rate scheduler, or the one classless scheduler
	// rates is the rate scheduler and table its flow table, where Enqueue
	// resolves a guaranteed packet's flow; both nil on a classless kind.
	rates    rateScheduler
	table    *rateTable
	linkRate float64
	reserved float64 // Σ r_α
	// measured is the FIFO+ queue of each predicted class, nil where the
	// classes' sharing does not measure their delay.
	measured []FIFOPlus

	// The schedulers of the unified, wfq and fifo kinds are held here by
	// value, so such a port's scheduler is one object plus its classes'
	// []FIFOPlus: wfq is the rate scheduler, flow0 the unified kind's
	// priority stack, fifo the unified kind's datagram level, the wfq
	// kind's flow 0 and the fifo kind's whole queue. The stack's levels and
	// counts are appended to levelBuf and countBuf, which hold the paper's
	// two classes and datagram without allocating.
	wfq      WFQ
	flow0    Priority
	fifo     FIFO
	levelBuf [inlineLevels]Scheduler
	countBuf [inlineLevels]int
}

// inlineLevels is how many priority levels a unified pipeline holds inline.
const inlineLevels = len(defaultClassTargets) + 1

// rateScheduler is what the pipeline needs of WFQ and VirtualClock beyond
// their shared flow table: registering a flow and changing its rate (WFQ
// keeps its backlogged-rate sum in step), and stamping a packet by the
// discipline's rule.
type rateScheduler interface {
	Scheduler
	AddFlow(id uint32, rate float64)
	SetRate(id uint32, rate float64)
	// enqueueOn stamps p by the discipline's rule and queues it on f, a
	// flow of the scheduler's table.
	enqueueOn(f *rateFlow, p *packet.Packet, now float64)
}

// pipelines is the fixed table of pipeline kinds: each entry fills in a
// pipeline whose normalized profile and link rate are set.
var pipelines = map[string]func(pl *Pipeline){
	KindUnified: func(pl *Pipeline) {
		pl.wfq.init(pl.linkRate)
		pl.wfq.AddFlowScheduler(Flow0ID, pl.linkRate, pl.unifiedStack())
		pl.reserving(&pl.wfq, &pl.wfq.rateTable)
	},
	KindWFQ: func(pl *Pipeline) {
		pl.wfq.init(pl.linkRate)
		pl.wfq.AddFlowScheduler(Flow0ID, pl.linkRate, &pl.fifo)
		pl.reserving(&pl.wfq, &pl.wfq.rateTable)
	},
	KindVirtualClock: func(pl *Pipeline) {
		v := NewVirtualClock()
		v.AddFlow(Flow0ID, pl.linkRate)
		pl.reserving(v, &v.rateTable)
	},
	KindFIFO: func(pl *Pipeline) { pl.queue = &pl.fifo },
	KindFIFOPlus: func(pl *Pipeline) {
		pl.measured = make([]FIFOPlus, 1)
		pl.measured[0].init()
		pl.queue = &pl.measured[0]
	},
	KindDRR: func(pl *Pipeline) { pl.queue = NewDRR(float64(pl.prof.MaxPacketBits)) },
	KindEDD: func(pl *Pipeline) {
		// Peak spacing: one maximum packet at the rate the port was built
		// with. SetLinkRate leaves a classless queue alone, so the spacing
		// stays put under a mid-run bandwidth change.
		pl.queue = NewDelayEDD(float64(pl.prof.MaxPacketBits)/pl.linkRate, pl.prof.ClassTargets[0])
	},
	KindStopAndGo: func(pl *Pipeline) { pl.queue = NewStopAndGo(pl.prof.ClassTargets[0]) },
}

// reserving makes rs, whose flow table is t and whose flow 0 is registered
// at the full link rate, the port's queue: flow 0 becomes the fallback for
// every packet without a reservation.
func (pl *Pipeline) reserving(rs rateScheduler, t *rateTable) {
	t.SetFallback(Flow0ID)
	pl.queue, pl.rates, pl.table = rs, rs, t
}

// PipelineKinds returns the kind names, sorted.
func PipelineKinds() []string {
	out := make([]string, 0, len(pipelines))
	for k := range pipelines {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func kindList() string { return strings.Join(PipelineKinds(), ", ") }

// NewPipeline normalizes and validates prof, then builds its pipeline for a
// port of the given link rate.
func NewPipeline(prof Profile, linkRate float64) (*Pipeline, error) {
	if linkRate <= 0 {
		return nil, fmt.Errorf("sched: pipeline link rate must be positive, got %v", linkRate)
	}
	prof = prof.Normalize()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	pl := &Pipeline{prof: prof, linkRate: linkRate}
	pipelines[prof.Kind](pl)
	return pl, nil
}

// Profile returns the normalized profile the pipeline was built from.
func (pl *Pipeline) Profile() Profile { return pl.prof }

// Classes returns the number of predicted classes the pipeline serves, without
// copying its profile.
func (pl *Pipeline) Classes() int { return pl.prof.Classes() }

// Enqueue implements Scheduler. On a reserving port a guaranteed packet goes
// to its own clocked flow by flow id — one probe of the table's id map;
// everything else lands in flow 0 directly (no per-flow lookup — only
// guaranteed flows are ever registered with the rate scheduler). A
// guaranteed packet whose reservation is gone — the tail of a departed flow
// still in flight from upstream hops — is demoted into flow 0: the hard
// commitment ended with the reservation, but the residue is still delivered.
func (pl *Pipeline) Enqueue(p *packet.Packet, now float64) {
	if pl.table == nil {
		pl.queue.Enqueue(p, now)
		return
	}
	var f *rateFlow
	if p.Class == packet.Guaranteed {
		f = pl.table.get(p.FlowID)
	}
	if f == nil {
		f = pl.table.fallbackFlow(p)
	}
	pl.rates.enqueueOn(f, p, now)
}

// Dequeue implements Scheduler.
func (pl *Pipeline) Dequeue(now float64) *packet.Packet { return pl.queue.Dequeue(now) }

// Len implements Scheduler.
func (pl *Pipeline) Len() int { return pl.queue.Len() }

// NextEligible implements NonWorkConserving: on the stopandgo kind, the
// instant its queue's next packet becomes eligible; on every other kind a
// queued packet is eligible now.
func (pl *Pipeline) NextEligible(now float64) float64 {
	if nwc, ok := pl.queue.(NonWorkConserving); ok {
		return nwc.NextEligible(now)
	}
	if pl.queue.Len() > 0 {
		return now
	}
	return math.Inf(1)
}

// WorkConserving reports whether the port never idles with a backlog: false
// only for the stopandgo kind, which holds a packet until its frame ends.
func (pl *Pipeline) WorkConserving() bool {
	_, holds := pl.queue.(NonWorkConserving)
	return !holds
}

// SupportsGuaranteed reports whether the pipeline can reserve per-flow clock
// rates.
func (pl *Pipeline) SupportsGuaranteed() bool { return pl.rates != nil }

// AddGuaranteed registers a guaranteed flow with clock rate r (bits/second)
// and shrinks flow 0's share accordingly. It panics on a classless pipeline,
// or if the link would be oversubscribed (Σ r_α >= µ leaves nothing for
// flow 0); the core checks both first.
func (pl *Pipeline) AddGuaranteed(id uint32, rate float64) {
	if pl.rates == nil {
		panic(fmt.Sprintf("sched: %s pipeline cannot reserve clock rates", pl.prof.Kind))
	}
	if pl.reserved+rate >= pl.linkRate {
		panic(fmt.Sprintf("sched: guaranteed reservations %.0f+%.0f would exhaust link rate %.0f",
			pl.reserved, rate, pl.linkRate))
	}
	pl.rates.AddFlow(id, rate)
	pl.reserved += rate
	pl.rates.SetRate(Flow0ID, pl.linkRate-pl.reserved)
}

// RemoveGuaranteed unregisters a guaranteed flow and returns its share to
// flow 0; a flow without a reservation here is a no-op. A backlogged flow
// (mid-run departure) keeps draining at its old clock rate and unregisters
// itself once empty; its share returns to flow 0 immediately, so the link is
// transiently oversubscribed in clock rates — WFQ virtual time tolerates
// that, and the backlog is bounded by the departing flow's token bucket.
func (pl *Pipeline) RemoveGuaranteed(id uint32) {
	rate := pl.clockRate(id)
	if rate == 0 {
		return
	}
	pl.table.RemoveFlow(id)
	pl.reserved -= rate
	pl.rates.SetRate(Flow0ID, pl.linkRate-pl.reserved)
}

// SetGuaranteedRate changes a reserved flow's clock rate. It panics on a
// flow without a reservation here, or if the link would be oversubscribed.
func (pl *Pipeline) SetGuaranteedRate(id uint32, rate float64) {
	old := pl.clockRate(id)
	if old == 0 {
		panic(fmt.Sprintf("sched: SetGuaranteedRate on unreserved flow %d", id))
	}
	if pl.reserved-old+rate >= pl.linkRate {
		panic(fmt.Sprintf("sched: renegotiated reservations %.0f would exhaust link rate %.0f",
			pl.reserved-old+rate, pl.linkRate))
	}
	pl.rates.SetRate(id, rate)
	pl.reserved += rate - old
	pl.rates.SetRate(Flow0ID, pl.linkRate-pl.reserved)
}

// clockRate returns the clock rate of flow id at this port (under Flow0ID,
// flow 0's leftover share), or 0 if it holds none.
func (pl *Pipeline) clockRate(id uint32) float64 {
	if pl.table == nil {
		return 0
	}
	return pl.table.Rate(id)
}

// Reserved is the sum of guaranteed clock rates (0 on a classless kind).
func (pl *Pipeline) Reserved() float64 { return pl.reserved }

// SetLinkRate tracks a mid-run link bandwidth change. On a reserving kind,
// WFQ's virtual time follows µ from now on and flow 0's share becomes the
// new leftover; it panics if the rate does not cover the reservations. A
// classless queue keeps what it was built with.
func (pl *Pipeline) SetLinkRate(rate, now float64) {
	if pl.rates == nil {
		return
	}
	if rate <= pl.reserved {
		panic(fmt.Sprintf("sched: link rate %.0f below reserved %.0f", rate, pl.reserved))
	}
	pl.linkRate = rate
	// Real-time clocks (VirtualClock) only need flow 0's share adjusted.
	if w, ok := pl.rates.(*WFQ); ok {
		w.SetLinkRate(rate, now)
	}
	pl.rates.SetRate(Flow0ID, rate-pl.reserved)
}

// ClassDelayEstimate is the conservative measured delay d̂ᵢ of predicted
// class i, the admission-control input: the recent maximum delay its FIFO+
// queue saw (a fifoplus port answers every class from its one queue), or 0
// where the class does not run FIFO+.
func (pl *Pipeline) ClassDelayEstimate(class int, now float64) float64 {
	if len(pl.measured) == 0 {
		return 0
	}
	return pl.measured[min(class, len(pl.measured)-1)].RecentMaxDelay(now)
}

var (
	_ Scheduler         = (*Pipeline)(nil)
	_ NonWorkConserving = (*Pipeline)(nil)
)
