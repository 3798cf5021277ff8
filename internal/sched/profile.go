package sched

import (
	"fmt"
	"sort"
	"strings"

	"ispn/internal/packet"
)

// This file is the per-port scheduling profile layer: instead of one
// network-global discipline, every output port carries a Profile describing
// the pipeline it runs — the unit of deployment the paper's incremental
// rollout story needs (FIFO+'s cross-hop jitter sharing only pays off where
// it is actually deployed). A registry of named builders turns a Profile
// into a Pipeline for a single port; the network core drives reservations,
// admission and bound math through the Pipeline interface without knowing
// which discipline is behind it.

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
// per-hop predicted class delay targets, the datagram reservation, and the
// FIFO+ class-average gain. The zero value of every field selects the
// paper's default, so Profile{} is the paper's unified scheduler.
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
	// widely spaced defaults (32 ms, 320 ms).
	ClassTargets []float64
	// DatagramQuota is the fraction of the link reserved for datagram
	// traffic: 0 means the paper's default (0.10), NoDatagramQuota (any
	// negative value) means no reservation at all.
	DatagramQuota float64
	// FIFOPlusGain tunes the FIFO+ class-average EWMA (0 =
	// DefaultFIFOPlusGain).
	FIFOPlusGain float64
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
		p.ClassTargets = []float64{0.032, 0.32}
	}
	if p.DatagramQuota == 0 {
		p.DatagramQuota = DefaultDatagramQuota
	}
	if p.MaxPacketBits == 0 {
		p.MaxPacketBits = 1000
	}
	return p
}

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
// forwarding agree at ports with fewer classes than the flow requested.
func (p Profile) TargetFor(class int) float64 {
	if class < 0 {
		class = 0
	}
	if class >= len(p.ClassTargets) {
		class = len(p.ClassTargets) - 1
	}
	return p.ClassTargets[class]
}

// Validate reports whether the normalized profile is buildable: a registered
// kind, positive class targets, a quota below 1, a positive gain.
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
	if p.FIFOPlusGain < 0 || p.FIFOPlusGain >= 1 {
		return fmt.Errorf("sched: FIFO+ gain must be in [0,1), got %v", p.FIFOPlusGain)
	}
	if p.MaxPacketBits < 0 {
		return fmt.Errorf("sched: max packet size must be positive, got %v", p.MaxPacketBits)
	}
	return nil
}

// Pipeline is the port-level scheduling stack the network core drives: the
// Scheduler the port dequeues from, plus the reservation and measurement
// hooks the service interface needs. Disciplines that cannot isolate
// per-flow clock rates (FIFO, FIFO+, DRR) report SupportsGuaranteed false
// and the core refuses guaranteed requests crossing them — an incremental
// deployment really does lose the hard commitment at un-upgraded hops.
type Pipeline interface {
	Scheduler
	// SupportsGuaranteed reports whether the pipeline can reserve
	// per-flow clock rates.
	SupportsGuaranteed() bool
	// AddGuaranteed reserves a clock rate for a flow; RemoveGuaranteed
	// and SetGuaranteedRate manage it. They panic on pipelines where
	// SupportsGuaranteed is false (the core checks first).
	AddGuaranteed(id uint32, rate float64)
	RemoveGuaranteed(id uint32)
	SetGuaranteedRate(id uint32, rate float64)
	// Reserved is the sum of guaranteed clock rates (0 when unsupported).
	Reserved() float64
	// SetLinkRate tracks a mid-run link bandwidth change.
	SetLinkRate(rate, now float64)
	// ClassDelayEstimate is the conservative measured delay d̂ᵢ of
	// predicted class i (0 when the pipeline does not measure it).
	ClassDelayEstimate(class int, now float64) float64
}

// pipelines is the fixed table of pipeline kinds: each entry constructs a
// pipeline from a normalized profile for a port of the given link rate.
var pipelines = map[string]func(p Profile, linkRate float64) Pipeline{
	KindUnified:      func(p Profile, linkRate float64) Pipeline { return NewUnified(p, linkRate) },
	KindWFQ:          newWFQPipeline,
	KindFIFO:         func(p Profile, _ float64) Pipeline { return &plainPipeline{Scheduler: NewFIFO(), prof: p} },
	KindFIFOPlus:     newFIFOPlusPipeline,
	KindVirtualClock: newVCPipeline,
	KindDRR: func(p Profile, _ float64) Pipeline {
		return &plainPipeline{Scheduler: NewDRR(float64(p.MaxPacketBits)), prof: p}
	},
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
func NewPipeline(prof Profile, linkRate float64) (Pipeline, error) {
	if linkRate <= 0 {
		return nil, fmt.Errorf("sched: pipeline link rate must be positive, got %v", linkRate)
	}
	prof = prof.Normalize()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	return pipelines[prof.Kind](prof, linkRate), nil
}

func newFIFOPlusPipeline(p Profile, _ float64) Pipeline {
	fp := NewFIFOPlus(p.FIFOPlusGain)
	return &plainPipeline{Scheduler: fp, prof: p, fp: fp}
}

// plainPipeline wraps a classless scheduler (FIFO, FIFO+, DRR) as a port
// pipeline: every packet shares the one queue, no clock rates can be
// reserved, and only FIFO+ contributes a class delay measurement.
type plainPipeline struct {
	Scheduler
	prof Profile
	fp   *FIFOPlus // non-nil for the fifoplus kind
}

func (p *plainPipeline) SupportsGuaranteed() bool { return false }
func (p *plainPipeline) AddGuaranteed(id uint32, rate float64) {
	panic(fmt.Sprintf("sched: %s pipeline cannot reserve clock rates", p.prof.Kind))
}
func (p *plainPipeline) RemoveGuaranteed(id uint32) {}
func (p *plainPipeline) SetGuaranteedRate(id uint32, rate float64) {
	panic(fmt.Sprintf("sched: %s pipeline cannot reserve clock rates", p.prof.Kind))
}
func (p *plainPipeline) Reserved() float64             { return 0 }
func (p *plainPipeline) SetLinkRate(rate, now float64) {}
func (p *plainPipeline) ClassDelayEstimate(class int, now float64) float64 {
	if p.fp != nil {
		return p.fp.RecentMaxDelay(now)
	}
	return 0
}

// rateScheduler is the per-flow clock-rate surface WFQ and VirtualClock
// share; isoPipeline builds the reservation bookkeeping on top of it once.
type rateScheduler interface {
	Scheduler
	AddFlow(id uint32, rate float64)
	RemoveFlow(id uint32)
	SetRate(id uint32, rate float64)
	Rate(id uint32) float64
	// enqueueOn stamps p by the discipline's rule and queues it on f, a
	// flow of the scheduler's table.
	enqueueOn(f *rateFlow, p *packet.Packet, now float64)
}

// isoPipeline is the isolation half of every reserving pipeline: guaranteed
// flows are isolated at their clock rates and pseudo flow 0 takes the
// leftover µ − Σ r_α. Unified embeds it with the priority stack as flow 0's
// child. On its own, flow 0 is one plain queue — no priority classes, no
// FIFO+: the "circuits only" end of the deployment spectrum (a WAN core that
// sells reservations but has not deployed predicted service). The wfq kind
// puts virtual-time WFQ underneath; the virtualclock kind puts Zhang's
// real-time per-flow clocks underneath.
type isoPipeline struct {
	rateScheduler
	table    *rateTable // the rate scheduler's flow table: Enqueue resolves a packet's flow here
	linkRate float64
	reserved float64
}

func newWFQPipeline(_ Profile, linkRate float64) Pipeline {
	w := NewWFQ(linkRate)
	w.AddFlowScheduler(Flow0ID, linkRate, NewFIFO())
	w.SetFallback(Flow0ID)
	return &isoPipeline{rateScheduler: w, table: &w.rateTable, linkRate: linkRate}
}

func newVCPipeline(_ Profile, linkRate float64) Pipeline {
	v := NewVirtualClock()
	v.AddFlow(Flow0ID, linkRate)
	v.SetFallback(Flow0ID)
	return &isoPipeline{rateScheduler: v, table: &v.rateTable, linkRate: linkRate}
}

func (w *isoPipeline) SupportsGuaranteed() bool { return true }

// AddGuaranteed registers a guaranteed flow with clock rate r (bits/second)
// and shrinks flow 0's share accordingly. It panics if the link would be
// oversubscribed (Σ r_α >= µ leaves nothing for flow 0).
func (w *isoPipeline) AddGuaranteed(id uint32, rate float64) {
	if w.reserved+rate >= w.linkRate {
		panic(fmt.Sprintf("sched: guaranteed reservations %.0f+%.0f would exhaust link rate %.0f",
			w.reserved, rate, w.linkRate))
	}
	w.AddFlow(id, rate)
	w.reserved += rate
	w.SetRate(Flow0ID, w.linkRate-w.reserved)
}

// RemoveGuaranteed unregisters a guaranteed flow and returns its share to
// flow 0. A backlogged flow (mid-run departure) keeps draining at its old
// clock rate and unregisters itself once empty; its share returns to flow 0
// immediately, so the link is transiently oversubscribed in clock rates —
// WFQ virtual time tolerates that, and the backlog is bounded by the
// departing flow's token bucket.
func (w *isoPipeline) RemoveGuaranteed(id uint32) {
	rate := w.Rate(id)
	if rate == 0 {
		return
	}
	w.RemoveFlow(id)
	w.reserved -= rate
	w.SetRate(Flow0ID, w.linkRate-w.reserved)
}

func (w *isoPipeline) SetGuaranteedRate(id uint32, rate float64) {
	old := w.Rate(id)
	if old == 0 {
		panic(fmt.Sprintf("sched: SetGuaranteedRate on unreserved flow %d", id))
	}
	if w.reserved-old+rate >= w.linkRate {
		panic(fmt.Sprintf("sched: renegotiated reservations %.0f would exhaust link rate %.0f",
			w.reserved-old+rate, w.linkRate))
	}
	w.SetRate(id, rate)
	w.reserved += rate - old
	w.SetRate(Flow0ID, w.linkRate-w.reserved)
}

func (w *isoPipeline) Reserved() float64 { return w.reserved }

func (w *isoPipeline) SetLinkRate(rate, now float64) {
	if rate <= w.reserved {
		panic(fmt.Sprintf("sched: link rate %.0f below reserved %.0f", rate, w.reserved))
	}
	w.linkRate = rate
	// Virtual-time disciplines track µ; real-time clocks (VirtualClock)
	// only need flow 0's share adjusted.
	if lr, ok := w.rateScheduler.(interface{ SetLinkRate(rate, now float64) }); ok {
		lr.SetLinkRate(rate, now)
	}
	w.SetRate(Flow0ID, rate-w.reserved)
}

func (w *isoPipeline) ClassDelayEstimate(class int, now float64) float64 { return 0 }

// Enqueue routes guaranteed packets to their own clocked flow by flow id —
// one probe of the table's id map; everything else lands in flow 0 directly
// (no per-flow lookup — only guaranteed flows are ever registered with the
// rate scheduler). A guaranteed packet whose reservation is gone — the tail
// of a departed flow still in flight from upstream hops — is demoted into
// flow 0: the hard commitment ended with the reservation, but the residue is
// still delivered.
func (w *isoPipeline) Enqueue(p *packet.Packet, now float64) {
	var f *rateFlow
	if p.Class == packet.Guaranteed {
		f = w.table.byID[p.FlowID]
	}
	if f == nil {
		f = w.table.fallbackFlow(p)
	}
	w.enqueueOn(f, p, now)
}

var (
	_ Pipeline = (*Unified)(nil)
	_ Pipeline = (*plainPipeline)(nil)
	_ Pipeline = (*isoPipeline)(nil)
)
