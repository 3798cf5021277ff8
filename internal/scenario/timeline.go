package scenario

// The timeline subsystem: compilation and runtime of "at <time> { ... }"
// event blocks and Churn flow-arrival processes. Scenarios stop being
// static — flows arrive mid-run through admission control, depart and
// release their reservations, renegotiate clock rates, and links change rate
// or profile, fail and reroute — while determinism holds: every statement
// compiles to one engine event (ties broken by insertion order = file order)
// and every random stream derives from (seed, element name).

import (
	"fmt"
	"strings"

	"ispn/internal/core"
	"ispn/internal/packet"
	"ispn/internal/sim"
	"ispn/internal/source"
	"ispn/internal/topology"
)

// simEvent is one scheduled timeline action.
type simEvent struct {
	at float64
	fn func(s *Sim)
}

// flowReq is a validated, deferred service request.
type flowReq struct {
	kind  string
	id    uint32
	nodes []string
	g     core.GuaranteedSpec
	p     core.PredictedSpec
	class int // explicit predicted class, or -1
}

// issue performs the request against the network.
func (r *flowReq) issue(net *core.Network) (*core.Flow, error) {
	switch r.kind {
	case "Guaranteed":
		return net.RequestGuaranteed(r.id, r.nodes, r.g)
	case "Predicted":
		if r.class >= 0 {
			return net.RequestPredictedClass(r.id, r.nodes, uint8(r.class), r.p)
		}
		return net.RequestPredicted(r.id, r.nodes, r.p)
	default:
		return net.AddDatagramFlow(r.id, r.nodes)
	}
}

// --- event-block compilation -----------------------------------------------

// eventBlock lowers one "at" block: every statement becomes one simEvent at
// the block's time.
func (c *compiler) eventBlock(b *EventBlock) {
	at := c.number(&b.At, dimTime, "at")
	if at < 0 {
		c.failf(b.AtPos, "at needs a non-negative time, got %v", at)
	}
	// Validate against the file's own horizon: a -horizon override that
	// shortens the run must not turn a valid file into a compile error
	// (the block then simply never fires).
	if at > c.fileHorizon {
		c.failf(b.AtPos, "at %vs is beyond the %vs horizon; the block would never fire", at, c.fileHorizon)
	}
	// Injection into a running simulation cannot rewrite the past: the
	// serve control plane sets minAt to the live clock (batch compiles
	// leave it 0, where the at >= 0 check above already holds).
	if at < c.minAt {
		c.failf(b.AtPos, "at %vs is in the past; the simulation clock is already at %vs", at, c.minAt)
	}
	// Every element this block declares exists from `at` on; record that
	// before compiling the statements so same-block chains resolve.
	for _, st := range b.Stmts {
		if st.Decl != nil {
			for _, n := range st.Decl.Names {
				c.declAt[n.Text] = at
			}
		}
	}
	for _, st := range b.Stmts {
		switch {
		case st.Decl != nil:
			if st.Decl.class() == classFlow {
				c.flowDecl(st.Decl, at, true)
			} // sources and filters are built when a chain uses them
		case st.Chain != nil:
			if c.isLinkChain(st.Chain) {
				c.linkEvent(st.Chain, at)
			} else {
				c.attachChain(st.Chain, at, true)
			}
		case st.Op != nil:
			c.eventOp(st.Op, at)
		}
	}
}

// linkEvent compiles a switch->switch chain inside an at block: it modifies
// existing links (rate and/or the scheduling profile) rather than creating
// new ones — the topology itself is static. Profile arguments
// (sched/sharing/targets/quota) become a live pipeline swap, merged
// over the link's *current* profile at event time, so an event names only
// what changes — the incremental-deployment upgrade of a single hop.
func (c *compiler) linkEvent(ch *Chain, at float64) {
	if len(ch.Attrs) == 0 {
		c.failf(ch.Ends[0].Pos, "a link chain in an at block must carry :: Link(rate ..., sched ...) — topology cannot grow mid-run")
	}
	a := c.attrsOf(classLinkEvent, ch.Ends[0].Pos, ch.Attrs)
	rate := a.bitrate("rate", 0)
	patch := c.linkProfile(a)
	a.finish()
	if rate == 0 && !patch.any() {
		c.failf(ch.Ends[0].Pos, "link event changes nothing (give rate and/or profile arguments)")
	}
	c.onLinks(ch.Ends, ch.Duplex, "in a link event", at, func(n *core.Network, from, to string) error {
		if rate != 0 {
			if err := n.SetLink(from, to, rate); err != nil {
				return err
			}
		}
		if !patch.any() {
			return nil
		}
		base, err := n.LinkProfile(from, to)
		if err != nil {
			return err
		}
		return n.SetLinkProfile(from, to, patch.apply(base))
	})
}

// onLinks is the runner the four link verbs share — Link(...) events, fail,
// restore and reroute: at time at it applies op to every
// link pair the chain names, and a refusal becomes a timeline warning while
// the remaining pairs still run.
func (c *compiler) onLinks(ends []Name, duplex []bool, context string, at float64, op func(n *core.Network, from, to string) error) {
	pairs := c.chainPairs(ends, duplex, context)
	c.out.events = append(c.out.events, simEvent{at: at, fn: func(s *Sim) {
		for _, pr := range pairs {
			if err := op(s.Net, pr[0], pr[1]); err != nil {
				s.warnf("at %vs: %v", at, err)
			}
		}
	}})
}

// onFlows resolves every flow a verb names and, at time at, applies fn to
// each.
func (c *compiler) onFlows(op *EventOp, at float64, fn func(s *Sim, sf *SimFlow)) {
	var targets []*SimFlow
	for _, n := range op.Names {
		targets = append(targets, c.flowAt(n, at, true, op.Verb))
	}
	c.out.events = append(c.out.events, simEvent{at: at, fn: func(s *Sim) {
		for _, sf := range targets {
			fn(s, sf)
		}
	}})
}

// chainPairs validates that every consecutive pair of ends is an existing
// link (expanding duplex arrows into both directions) and returns the pairs.
func (c *compiler) chainPairs(ends []Name, duplex []bool, context string) [][2]string {
	var pairs [][2]string
	for i := 0; i < len(ends)-1; i++ {
		from, to := ends[i], ends[i+1]
		for _, n := range []Name{from, to} {
			if !c.switches[n.Text] {
				c.what(n, "a switch", context)
			}
		}
		fwd := [2]string{from.Text, to.Text}
		if !c.hasLink(from.Text, to.Text) {
			c.failf(from.Pos, "no link %s -> %s is declared", from.Text, to.Text)
		}
		pairs = append(pairs, fwd)
		if duplex[i] {
			rev := [2]string{to.Text, from.Text}
			if !c.hasLink(to.Text, from.Text) {
				c.failf(from.Pos, "no link %s -> %s is declared (the chain says <->)", to.Text, from.Text)
			}
			pairs = append(pairs, rev)
		}
	}
	return pairs
}

// eventOp compiles a timeline verb.
func (c *compiler) eventOp(op *EventOp, at float64) {
	switch op.Verb {
	case "remove":
		c.onFlows(op, at, (*Sim).removeFlow)
	case "fail":
		c.onLinks(op.Names, op.Duplex, "in a fail", at, (*core.Network).FailLink)
	case "restore":
		c.onLinks(op.Names, op.Duplex, "in a restore", at, (*core.Network).RestoreLink)
	case "reroute":
		if !c.out.routingOn {
			c.failf(op.VerbPos, "reroute needs routing enabled (add Net(routing auto) or a Reroute element)")
		}
		// Every flow crossing the link(s) moves to its shortest path.
		c.onLinks(op.Names, op.Duplex, "in a reroute", at, func(n *core.Network, from, to string) error {
			_, _, err := n.RerouteAround(from, to)
			return err
		})
	case "renew":
		n := op.Names[0]
		if d := c.decls[n.Text]; d != nil && (d.Kind == "Predicted" || d.Kind == "Datagram") {
			c.failf(n.Pos, "%s flow %q has no clock rate to renew", strings.ToLower(d.Kind), n.Text)
		}
		sf := c.flowAt(n, at, true, "renew")
		a := c.attrsOf(classRenew, op.VerbPos, op.Args)
		rate := a.bitrate("rate", 0)
		a.finish()
		if rate == 0 {
			c.failf(op.VerbPos, "renew changes nothing (give a rate)")
		}
		c.out.events = append(c.out.events, simEvent{at: at, fn: func(s *Sim) {
			s.renewFlow(sf, rate)
		}})
	default:
		c.failf(op.VerbPos, "unknown event verb %q", op.Verb)
	}
}

// --- timeline runtime ------------------------------------------------------

// issueRequest issues a runtime service request, maintaining the admission
// totals and trace curves (datagram requests make no commitment and are not
// counted), and taps the flow on success. Both scripted arrivals and churn
// arrivals go through here, so their accounting cannot drift apart.
func (s *Sim) issueRequest(req *flowReq) (*core.Flow, error) {
	now := s.Net.Engine().Now()
	commits := req.kind != "Datagram"
	if commits {
		s.adm.Requested++
	}
	f, err := req.issue(s.Net)
	if commits {
		s.noteAdmission(now, err == nil)
	}
	if err != nil {
		return nil, err
	}
	s.tapFlow(f)
	return f, nil
}

// requestFlow issues a deferred service request at event time.
func (s *Sim) requestFlow(sf *SimFlow, req *flowReq) {
	f, err := s.issueRequest(req)
	if err != nil {
		sf.Rejected = true
		sf.Reason = err.Error()
		return
	}
	sf.Flow = f
}

// removeFlow executes a departure: sources stop, reservations and admission
// capacity are released, in-flight packets drain normally. Removing a flow
// that was never admitted (or is already gone) is a no-op — the departure of
// a rejected request releases nothing.
func (s *Sim) removeFlow(sf *SimFlow) {
	if sf.Flow == nil || sf.removed {
		return
	}
	for _, src := range sf.sources {
		source.StopSource(src)
	}
	s.Net.Release(sf.Flow.ID)
	sf.removed = true
	sf.Departed = true
	if sf.Kind != "Datagram" {
		s.noteDeparture(s.Net.Engine().Now())
	}
}

// renewFlow changes a guaranteed flow's clock rate. A refusal counts as a
// rejected request; the old rate stays in force.
func (s *Sim) renewFlow(sf *SimFlow, rate float64) {
	if sf.Flow == nil || sf.removed {
		return
	}
	now := s.Net.Engine().Now()
	s.adm.Requested++
	spec := sf.Flow.GuaranteedSpec()
	spec.ClockRate = rate
	if err := s.Net.RenegotiateGuaranteed(sf.Flow.ID, spec); err != nil {
		s.noteAdmission(now, false)
		s.warnf("at %vs: renew %s: %v", now, sf.Name, err)
		return
	}
	s.noteAdmission(now, true)
}

// allocID hands out runtime flow ids (churn arrivals), continuing after the
// compile-time allocator. Runtime allocation order is engine-event order,
// which is itself deterministic.
func (s *Sim) allocID() uint32 {
	id := s.nextID
	s.nextID++
	return id
}

// tapFlow feeds a flow's deliveries into the trace (when tracing is on).
func (s *Sim) tapFlow(f *core.Flow) {
	if s.trace != nil {
		f.Tap(s.trace.tap)
	}
}

func (s *Sim) noteAdmission(now float64, admitted bool) {
	if admitted {
		s.adm.Admitted++
		if s.trace != nil {
			s.trace.bin(now).admitted++
		}
	} else {
		s.adm.Rejected++
		if s.trace != nil {
			s.trace.bin(now).rejected++
		}
	}
}

func (s *Sim) noteDeparture(now float64) {
	s.adm.Departed++
	if s.trace != nil {
		s.trace.bin(now).departed++
	}
}

func (s *Sim) warnf(format string, args ...any) {
	s.warnings = append(s.warnings, fmt.Sprintf(format, args...))
}

// --- per-interval trace ----------------------------------------------------

// traceRec collects the per-interval curves the Run(trace <dt>) knob asks
// for: delivered packets and their queueing delays, admission decisions,
// departures, and the utilization of the busiest link (the bottleneck of
// the interval — a network-wide average would be diluted by idle fast
// access links). Only full intervals within the horizon are reported.
type traceRec struct {
	dt    float64
	nfull int

	eng  *sim.Engine
	tap  func(p *packet.Packet, queueing float64) // deliver, bound once: every traced flow's tap
	bins []traceBin                               // one per interval, grown on demand
	util []float64                                // per-interval busiest-link utilization

	ports    []*topology.Port
	prevBits []float64 // per-port cumulative tx bits at the last tick
}

// traceBin is one interval's counts. Its delays are summed in delivery
// order, whichever flows delivered them.
type traceBin struct {
	delivered, admitted, rejected, departed int64
	sum, max                                float64
}

func newTraceRec(dt, horizon float64, eng *sim.Engine) *traceRec {
	// The epsilon keeps float truncation from eating the last interval
	// (10/0.1 is 99.999… in float64).
	tr := &traceRec{dt: dt, nfull: int(horizon/dt + 1e-9), eng: eng}
	tr.tap = tr.deliver
	return tr
}

// bin returns the bin of the interval holding time t.
func (tr *traceRec) bin(t float64) *traceBin {
	i := int(t / tr.dt)
	for len(tr.bins) <= i {
		tr.bins = append(tr.bins, traceBin{})
	}
	return &tr.bins[i]
}

// deliver counts one delivery at the engine's clock.
func (tr *traceRec) deliver(_ *packet.Packet, q float64) {
	b := tr.bin(tr.eng.Now())
	b.delivered++
	b.sum += q
	if q > b.max {
		b.max = q
	}
}

// row assembles trace interval k — shared by the final report and the live
// TraceRows stream, so the two are byte-identical row for row.
func (tr *traceRec) row(k int) TraceRow {
	row := TraceRow{Interval: k, Start: float64(k) * tr.dt, End: float64(k+1) * tr.dt}
	if k < len(tr.bins) {
		b := tr.bins[k]
		row.Delivered, row.MaxMS = b.delivered, b.max*1e3
		if b.delivered > 0 {
			row.MeanMS = b.sum / float64(b.delivered) * 1e3
		}
		row.Admitted, row.Rejected, row.Departed = b.admitted, b.rejected, b.departed
	}
	if k < len(tr.util) {
		row.Util = tr.util[k]
	}
	return row
}

// arm schedules the interval-boundary ticks that sample link utilization.
func (tr *traceRec) arm(s *Sim) {
	for _, nd := range s.Net.Topology().Nodes() {
		tr.ports = append(tr.ports, nd.Ports()...)
	}
	if tr.nfull == 0 || len(tr.ports) == 0 {
		return
	}
	tr.prevBits = make([]float64, len(tr.ports))
	eng := s.Net.Engine()
	k := 0
	var tick func()
	tick = func() {
		k++
		busiest := 0.0
		for i, pt := range tr.ports {
			bits := float64(pt.TxBits())
			// An interval straddling a SetLink rate change is measured
			// against the end-of-interval bandwidth; clamp so a rate cut
			// cannot report >100% for the interval it happened in.
			if u := (bits - tr.prevBits[i]) / (pt.Bandwidth() * tr.dt); u > busiest {
				busiest = u
			}
			tr.prevBits[i] = bits
		}
		if busiest > 1 {
			busiest = 1
		}
		tr.util = append(tr.util, busiest)
		if k < tr.nfull {
			eng.AtControl(float64(k+1)*tr.dt, tick)
		}
	}
	// Ticks are control events: TxBits is read at the interval boundary
	// before any same-time transmission adds to it.
	eng.AtControl(tr.dt, tick)
}
