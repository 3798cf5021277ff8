// Package invariant is the runtime correctness oracle: a set of checkers
// that watch a running ISPN for violations of the service model the paper
// promises and the engineering invariants the implementation relies on.
//
// The oracle attaches to a core.Network before (or during) a run and
// observes it two ways:
//
//   - per delivery, through each flow's check tap: guaranteed flows must
//     stay under the Parekh-Gallager bound (Section 5), predicted flows
//     under the sum of their per-switch class targets (Section 7);
//   - per sweep (a periodic control event plus one at the horizon):
//     per-port packet conservation (enqueued = dropped + discarded +
//     transmitted + queued), queue-length bookkeeping consistency, and the
//     admission ledger never growing past the reservable share of any link
//     (Section 9).
//
// After the run quiesces (sources stopped, queues drained), CheckLeaks
// verifies every packet went back to its free list.
//
// Checks cost nothing when not attached: the core hooks are single nil
// compares. Violations are deduplicated per (checker, subject) with a
// count, so a broken invariant in a hot loop reports once, not a million
// times, and the report stays deterministic.
package invariant

import (
	"fmt"
	"math"
	"sort"

	"ispn/internal/core"
	"ispn/internal/packet"
	"ispn/internal/sim"
)

// Checker names, as they appear in violations and reports.
const (
	CheckPGBound      = "pg-bound"
	CheckPredicted    = "predicted-target"
	CheckConservation = "conservation"
	CheckQueueLens    = "qlen-consistency"
	CheckCapacity     = "capacity"
	CheckAggregate    = "aggregate-consistency"
	CheckLeak         = "pool-leak"
)

// Config adjusts the oracle.
type Config struct {
	// Interval is the sweep period in simulated seconds (default 1).
	Interval float64
	// BoundScale scales every delay bound before comparison (default 1).
	// Harness tests set a tiny value to prove the oracle has teeth.
	BoundScale float64
}

// Violation is one broken invariant, deduplicated per (checker, subject):
// Time and Detail describe the first occurrence, Count totals them all.
type Violation struct {
	Checker string
	Subject string
	Time    float64
	Detail  string
	Count   int64
}

func (v Violation) String() string {
	return fmt.Sprintf("%s %s: %d violation(s), first at %.3fs: %s",
		v.Checker, v.Subject, v.Count, v.Time, v.Detail)
}

// Totals is the oracle's summary after a run.
type Totals struct {
	Deliveries int64 // per-packet bound checks performed
	Sweeps     int64 // periodic sweeps performed
	Violations []Violation
}

// Oracle watches one network. Attach wires it in; Arm schedules the sweeps.
type Oracle struct {
	net   *core.Network
	cfg   Config
	armed bool

	// vs deduplicates violations.
	vs map[string]*Violation

	flows        []*flowState
	sweeps       int64
	prevReserved []float64 // per port index: Reserved() at the last sweep
}

// Attach wires the oracle into a network: every flow already admitted and
// every flow admitted later gets a delivery-time bound check. Call before
// traffic starts; then Arm to schedule the sweeps.
func Attach(net *core.Network, cfg Config) *Oracle {
	if cfg.Interval <= 0 {
		cfg.Interval = 1
	}
	if cfg.BoundScale == 0 {
		cfg.BoundScale = 1
	}
	o := &Oracle{net: net, cfg: cfg, vs: make(map[string]*Violation)}
	net.SetFlowHook(o.watchFlow)
	for _, f := range net.Flows() {
		o.watchFlow(f)
	}
	return o
}

// Arm schedules the periodic sweeps plus a final sweep exactly at the
// horizon. Sweeps are control events: sharded runs execute them at
// inter-window barriers with every shard parked, so cross-shard reads are
// the same counter values a sequential run sees.
func (o *Oracle) Arm(horizon float64) {
	if o.armed {
		return
	}
	o.armed = true
	eng := o.net.Engine()
	k := 1
	var tick func()
	tick = func() {
		o.Sweep(eng.Now())
		k++
		if t := float64(k) * o.cfg.Interval; t < horizon {
			eng.AtControl(t, tick)
		}
	}
	if o.cfg.Interval < horizon {
		eng.AtControl(o.cfg.Interval, tick)
	}
	eng.AtControl(horizon, func() { o.Sweep(eng.Now()) })
}

// Sweep runs the per-port checkers once. Arm calls it on a timer; tests may
// call it directly between events.
func (o *Oracle) Sweep(now float64) {
	o.sweeps++
	topo := o.net.Topology()
	ports := topo.Ports()
	if o.prevReserved == nil {
		o.prevReserved = make([]float64, len(ports))
	}
	for _, pt := range ports {
		// Conservation: every packet ever enqueued is dropped, discarded,
		// transmitted (possibly still on the wire) or still queued. The
		// queue term asks the scheduler itself, not the port's mirror
		// count, so a pipeline that loses or invents packets is caught.
		slen := pt.Scheduler().Len()
		c := pt.Counter()
		if got := c.Dropped + pt.Discarded() + pt.TxPackets() + int64(slen); got != c.Total {
			o.record(CheckConservation, pt.Name(), now, fmt.Sprintf(
				"enqueued %d != dropped %d + discarded %d + transmitted %d + queued %d",
				c.Total, c.Dropped, pt.Discarded(), pt.TxPackets(), slen))
		}
		// Queue-length bookkeeping: the port's mirror count and its
		// per-class split must agree with the scheduler.
		if q := pt.QueueLen(); q != slen {
			o.record(CheckQueueLens, pt.Name(), now,
				fmt.Sprintf("port mirror %d != scheduler %d", q, slen))
		} else {
			sum := 0
			for cl := packet.Guaranteed; cl <= packet.Datagram; cl++ {
				sum += pt.QueueLenByClass(cl)
			}
			if sum != q {
				o.record(CheckQueueLens, pt.Name(), now,
					fmt.Sprintf("per-class counts sum to %d, queue has %d", sum, q))
			}
		}
		// Capacity: reservations never reach the link rate, and admission
		// never grows them past the reservable share (1 - datagram quota).
		// A live rate cut may leave an existing commitment above the new
		// quota line — that is the operator's doing, not admission's — so
		// the quota check only fires when reservations *grew* while over.
		i := pt.Index()
		res := o.net.Pipeline(pt).Reserved()
		bw := pt.Bandwidth()
		if res >= bw {
			o.record(CheckCapacity, pt.Name(), now, fmt.Sprintf(
				"reserved %.0f bit/s >= link rate %.0f bit/s", res, bw))
		} else if limit := (1 - o.net.ProfileAt(pt).Quota()) * bw; res > limit*(1+1e-9)+1e-9 &&
			res > o.prevReserved[i]+1e-9 {
			o.record(CheckCapacity, pt.Name(), now, fmt.Sprintf(
				"admission grew reservations to %.0f bit/s, past the %.0f bit/s reservable share", res, limit))
		}
		o.prevReserved[i] = res
	}
	// Aggregate consistency: the oracle sees through predicted-flow
	// aggregation. A carrier flow declares (and the schedulers, admission
	// and reroute machinery all consume) one total rate; that total must
	// always equal the sum of its live members' token rates, or member
	// join/leave bookkeeping has drifted and every downstream decision is
	// charged the wrong load.
	for _, a := range o.net.Aggregates() {
		sum := a.MemberRateSum()
		total := a.DeclaredTotal()
		declared := a.Carrier().DeclaredRate()
		tol := 1e-6 * (1 + math.Abs(sum))
		if math.Abs(total-sum) > tol || math.Abs(declared-sum) > tol {
			o.record(CheckAggregate, fmt.Sprintf("carrier %d", a.Carrier().ID), now, fmt.Sprintf(
				"%d member(s) sum to %.3f bit/s, aggregate records %.3f, carrier declares %.3f",
				a.Members(), sum, total, declared))
		}
	}
}

// Settled reports whether the network has gone quiet: every queue empty and
// every packet back in a free list. The post-horizon drain polls it.
func (o *Oracle) Settled() bool {
	gets, puts, _ := o.net.Pool().Stats()
	if gets != puts {
		return false
	}
	for _, pt := range o.net.Topology().Ports() {
		if pt.Scheduler().Len() != 0 {
			return false
		}
	}
	return true
}

// CheckLeaks verifies every packet went home. Call only after the network
// has quiesced (sources stopped, post-horizon drain done): a packet still
// legitimately in flight would count as leaked.
func (o *Oracle) CheckLeaks(now float64) {
	gets, puts, _ := o.net.Pool().Stats()
	if gets != puts {
		o.record(CheckLeak, "packet.Pool", now, fmt.Sprintf(
			"%d packet(s) unaccounted for (%d gets, %d puts)", gets-puts, gets, puts))
	}
	for _, pt := range o.net.Topology().Ports() {
		if n := pt.Scheduler().Len(); n != 0 {
			o.record(CheckLeak, pt.Name(), now,
				fmt.Sprintf("%d packet(s) still queued after drain", n))
		}
	}
}

// Totals summarizes the run: call after it completes. Violations are sorted
// by (checker, subject), so the summary is deterministic and identical for
// sequential and sharded runs of the same world.
func (o *Oracle) Totals() Totals {
	t := Totals{Sweeps: o.sweeps}
	for _, fs := range o.flows {
		t.Deliveries += fs.checks
	}
	keys := make([]string, 0, len(o.vs))
	for k := range o.vs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Violations = append(t.Violations, *o.vs[k])
	}
	return t
}

func (o *Oracle) record(checker, subject string, now float64, detail string) {
	key := checker + "|" + subject
	v := o.vs[key]
	if v == nil {
		v = &Violation{Checker: checker, Subject: subject, Time: now, Detail: detail}
		o.vs[key] = v
	}
	v.Count++
}

// flowState is the per-flow bound checker, fed by the delivery tap on the
// flow's egress engine.
type flowState struct {
	o       *Oracle
	f       *core.Flow
	checker string
	eng     *sim.Engine

	checks     int64
	bound      float64
	rerouted   int64
	limit      float64
	skipBefore float64 // packets created before this straddle a spec change
}

func (o *Oracle) watchFlow(f *core.Flow) {
	var checker string
	switch f.Class {
	case packet.Guaranteed:
		checker = CheckPGBound
	case packet.Predicted:
		// Predicted targets are a commitment only while measurement-based
		// admission (Section 9) is limiting the load; without it nothing
		// stops a scenario from oversubscribing a class, and the paper
		// expects targets to be overrun then.
		if !o.net.Config().AdmissionControl {
			return
		}
		checker = CheckPredicted
	default:
		return // datagram service carries no delay commitment
	}
	fs := &flowState{o: o, f: f, checker: checker, eng: f.EgressEngine()}
	fs.refresh()
	o.flows = append(o.flows, fs)
	f.SetCheckTap(fs.onDelivery)
}

func (fs *flowState) refresh() {
	fs.bound = fs.f.Bound()
	fs.rerouted = fs.f.Rerouted()
	fs.limit = (fs.bound+fs.o.slack(fs.f))*fs.o.cfg.BoundScale + 1e-9*(1+fs.bound)
}

// slack is the non-preemption allowance added to every advertised bound:
// the bounds assume an arriving packet never waits for a lower-priority
// packet already on the wire, but a non-preemptive link can add up to one
// maximum packet's transmission time per hop.
func (o *Oracle) slack(f *core.Flow) float64 {
	maxBits := float64(o.net.Config().MaxPacketBits)
	var s float64
	for _, pt := range o.net.Topology().PathPorts(f.Path()) {
		s += maxBits / pt.Bandwidth()
	}
	return s
}

func (fs *flowState) onDelivery(p *packet.Packet, queueing float64) {
	fs.checks++
	if fs.f.Bound() != fs.bound || fs.f.Rerouted() != fs.rerouted {
		// The flow renegotiated its spec or moved to a new path; packets
		// already in flight straddle the old and new commitments, so give
		// them a pass and hold the new bound from here on.
		fs.refresh()
		fs.skipBefore = fs.eng.Now()
	}
	if math.IsInf(fs.bound, 1) || p.CreatedAt < fs.skipBefore {
		return
	}
	if queueing > fs.limit {
		fs.o.record(fs.checker, fmt.Sprintf("flow %d", fs.f.ID), fs.eng.Now(), fmt.Sprintf(
			"queueing %.3fms exceeds the %.3fms bound (checked limit %.3fms incl. slack)",
			queueing*1e3, fs.bound*1e3, fs.limit*1e3))
	}
}
