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
	"math"
	"sort"
	"strings"

	"ispn/internal/core"
	"ispn/internal/packet"
	"ispn/internal/sim"
	"ispn/internal/source"
	"ispn/internal/stats"
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
	at := c.argsOf(&Decl{Kind: "at", KindPos: b.AtPos, Args: []Arg{{Name: "at", Value: b.At}}}).duration("at", -1)
	if !c.ok() {
		return
	}
	if at < 0 {
		c.failf(b.AtPos, "at needs a non-negative time, got %v", at)
		return
	}
	// Validate against the file's own horizon: a -horizon override that
	// shortens the run must not turn a valid file into a compile error
	// (the block then simply never fires).
	if at > c.fileHorizon {
		c.failf(b.AtPos, "at %vs is beyond the %vs horizon; the block would never fire", at, c.fileHorizon)
		return
	}
	// Injection into a running simulation cannot rewrite the past: the
	// serve control plane sets minAt to the live clock (batch compiles
	// leave it 0, where the at >= 0 check above already holds).
	if at < c.minAt {
		c.failf(b.AtPos, "at %vs is in the past; the simulation clock is already at %vs", at, c.minAt)
		return
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
		if !c.ok() {
			return
		}
		switch {
		case st.Decl != nil:
			switch kindClass[st.Decl.Kind] {
			case classFlow:
				c.flowDecl(st.Decl, at, true)
			case classSource, classFilter:
				// Built when an attachment chain uses them.
			}
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

// linkEventArgNames is the accepted argument set of a Link(...) inside an
// at block: Link's, less the propagation delay, which is fixed at compile.
var linkEventArgNames = append([]string{"rate"}, profileArgNames...)

// linkEvent compiles a switch->switch chain inside an at block: it modifies
// existing links (rate and/or the scheduling profile) rather than creating
// new ones — the topology itself is static. Profile arguments
// (sched/sharing/targets/quota) become a live pipeline swap, merged
// over the link's *current* profile at event time, so an event names only
// what changes — the incremental-deployment upgrade of a single hop.
func (c *compiler) linkEvent(ch *Chain, at float64) {
	if len(ch.Attrs) == 0 {
		c.failf(ch.Ends[0].Pos, "a link chain in an at block must carry :: Link(rate ..., sched ...) — topology cannot grow mid-run")
		return
	}
	a := c.argsOf(&Decl{Kind: "Link", KindPos: ch.Ends[0].Pos, Args: ch.Attrs})
	rate := a.bitrate("rate", 0)
	patch := c.linkProfile(a)
	a.finish(linkEventArgNames...)
	if !c.ok() {
		return
	}
	if rate == 0 && !patch.any() {
		c.failf(ch.Ends[0].Pos, "link event changes nothing (give rate and/or profile arguments)")
		return
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
		prof, err := patch.apply(base)
		if err != nil {
			return fmt.Errorf("link %s->%s: %v", from, to, err)
		}
		return n.SetLinkProfile(from, to, prof)
	})
}

// onLinks is the runner the four link verbs share — Link(...) events, fail,
// restore and reroute: at time at it applies op to every
// link pair the chain names, and a refusal becomes a timeline warning while
// the remaining pairs still run.
func (c *compiler) onLinks(ends []Name, duplex []bool, context string, at float64, op func(n *core.Network, from, to string) error) {
	pairs := c.chainPairs(ends, duplex, context)
	if pairs == nil {
		return
	}
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
		sf := c.flowAt(n, at, true, op.Verb)
		if sf == nil {
			return
		}
		targets = append(targets, sf)
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
				return nil
			}
		}
		fwd := [2]string{from.Text, to.Text}
		if !c.links[fwd] {
			c.failf(from.Pos, "no link %s -> %s is declared", from.Text, to.Text)
			return nil
		}
		pairs = append(pairs, fwd)
		if duplex[i] {
			rev := [2]string{to.Text, from.Text}
			if !c.links[rev] {
				c.failf(from.Pos, "no link %s -> %s is declared (the chain says <->)", to.Text, from.Text)
				return nil
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
			return
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
			return
		}
		sf := c.flowAt(n, at, true, "renew")
		if sf == nil {
			return
		}
		a := c.argsOf(&Decl{Kind: "renew", KindPos: op.VerbPos, Args: op.Args})
		rate := a.bitrate("rate", 0)
		a.finish(renewArgNames...)
		if !c.ok() {
			return
		}
		if rate == 0 {
			c.failf(op.VerbPos, "renew changes nothing (give a rate)")
			return
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

// renewArgNames is the accepted renew argument set.
var renewArgNames = []string{"rate"}

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
// Each flow gets its own series, stamped by its egress engine's clock (the
// clock that times the delivery) and written only from that engine — so
// shards never share a series. The report merges the series bin-wise in
// registration order; TimeBin aggregates are order-independent, so the merge
// is identical however the windows interleaved.
func (s *Sim) tapFlow(f *core.Flow) {
	if s.trace == nil {
		return
	}
	tr := s.trace
	series := stats.NewTimeSeries(tr.dt)
	tr.delays = append(tr.delays, series)
	eng := f.EgressEngine()
	f.Tap(func(_ *packet.Packet, queueing float64) {
		series.Add(eng.Now(), queueing)
	})
}

func (s *Sim) noteAdmission(now float64, admitted bool) {
	if admitted {
		s.adm.Admitted++
		if s.trace != nil {
			s.trace.admitted.Add(now, 1)
		}
	} else {
		s.adm.Rejected++
		if s.trace != nil {
			s.trace.rejected.Add(now, 1)
		}
	}
}

func (s *Sim) noteDeparture(now float64) {
	s.adm.Departed++
	if s.trace != nil {
		s.trace.departed.Add(now, 1)
	}
}

func (s *Sim) warnf(format string, args ...any) {
	s.warnings = append(s.warnings, fmt.Sprintf(format, args...))
}

// --- churn -----------------------------------------------------------------

// churnRun is a compiled Churn element: a Poisson process of flow arrivals,
// each holding an exponentially distributed time before departing. Every
// arrival goes through admission control; rejected arrivals carry no
// traffic. All randomness comes from one stream derived from (seed,
// "churn:" + name), plus one derived stream per arrival k for its source,
// named "churn:" + name + ":" + k, so runs are bit-identical whatever the
// worker pool does.
//
// A call costs two allocations, its core.Flow and its churnCall, and a
// departed call keeps only its callMeter: the churn row's inputs.
type churnRun struct {
	name    string
	every   float64 // mean inter-arrival, seconds
	hold    float64 // mean holding time, seconds
	service string  // Predicted / Datagram
	p       core.PredictedSpec
	srcKind string // cbr / poisson
	pps     float64
	size    int
	paths   [][]string

	// Destination-locality mode (from/to/locality instead of paths):
	// arrivals originate at from and pick a destination from dests with
	// Zipf-skewed probability P(k) ∝ 1/(k+1)^locality over the list in file
	// order; the route is resolved at arrival time through the network's
	// LookupRoute — the lookup stream a RouteCache element accelerates.
	from    string
	dests   []string
	destCDF []float64 // cumulative Zipf weights, len(dests)

	rng     *sim.RNG
	streams sim.Family // seeds each call's source stream from its arrival number

	arrivals, admitted, rejected, departed int64

	// The row's inputs: every admitted call's meter, in arrival order, in
	// blocks that never move (flows point into them), and the delays of
	// every delivered packet.
	meters [][]callMeter
	delays stats.Recorder

	live   []*churnCall // calls not yet departed, in no particular order (quiesce stops their sources)
	s      *Sim
	depart func(any) // departCall, bound once
}

// meterBlock is how many calls' meters one block holds.
const meterBlock = 512

// callMeter is what a call keeps once it has departed: its flow meters into
// it (core.Flow.MeterInto), so a packet in flight at departure still counts.
// The report folds the calls' delay sums in arrival order, as merging their
// recorders did; the samples go straight to the churn's one recorder, since
// the maximum and the percentiles do not depend on their order.
type callMeter struct {
	sum float64 // the call's queueing delays, summed in delivery order
	all *stats.Recorder
}

// Add implements core.DelayMeter.
func (m *callMeter) Add(q float64) {
	m.sum += q
	m.all.Add(q)
}

// churnCall is an admitted call until it departs: its flow, and its source
// and the source's random stream held by value. After the departure nothing
// names it but its source's last pending tick, and nothing names its Flow
// but the packets still in flight.
type churnCall struct {
	flow    *core.Flow
	live    int           // index in churnRun.live
	src     source.Source // &cbr or &poisson
	cbr     source.CBR
	poisson source.Poisson
	rng     sim.RNG
}

// churnArgNames is the accepted Churn argument set, in documentation order.
var churnArgNames = []string{"every", "hold", "service", "rate", "bucket", "delay",
	"pps", "size", "src", "paths", "from", "to", "locality"}

// churnDecl compiles a Churn element.
func (c *compiler) churnDecl(d *Decl) {
	a := c.argsOf(d)
	ch := &churnRun{
		name:    d.Names[0].Text,
		every:   a.duration("every", 0),
		hold:    a.duration("hold", 0),
		service: a.enum("service", "predicted", "predicted", "datagram"),
		srcKind: a.enum("src", "poisson", "poisson", "cbr"),
		pps:     a.pktRate("pps", 0),
		size:    int(a.bits("size", DefaultPktBits)),
	}
	rate := a.bitrate("rate", 0)
	ch.p = core.PredictedSpec{
		TokenRate:  rate,
		BucketBits: a.bits("bucket", DefaultBucketPkt*DefaultPktBits),
		Delay:      a.duration("delay", 0.5),
		Loss:       0.01,
	}
	pathLists := a.pathList("paths")
	from, fromGiven := a.identName("from")
	dests := a.nameList("to")
	locality := a.plain("locality", 1)
	localityPos, localityGiven := a.given("locality")
	a.finish(churnArgNames...)
	if !c.ok() {
		return
	}
	if ch.service == "predicted" {
		ch.service = "Predicted"
	} else {
		ch.service = "Datagram"
	}
	if ch.every <= 0 {
		c.failf(d.KindPos, "Churn requires a positive mean inter-arrival (every 2s)")
		return
	}
	if ch.hold <= 0 {
		c.failf(d.KindPos, "Churn requires a positive mean holding time (hold 10s)")
		return
	}
	if ch.service == "Predicted" && rate <= 0 {
		c.failf(d.KindPos, "Churn Predicted flows need a positive per-flow rate")
		return
	}
	if ch.pps <= 0 {
		c.failf(d.KindPos, "Churn requires a positive per-flow packet rate (pps 64pps)")
		return
	}
	// Two routing modes: explicit paths or destination locality
	// (from/to/locality), never both.
	destMode := fromGiven || dests != nil || localityGiven
	if destMode && len(pathLists) > 0 {
		c.failf(d.KindPos, "Churn takes either explicit paths or destination locality (from/to), not both")
		return
	}
	if destMode {
		if !fromGiven || len(dests) == 0 {
			c.failf(d.KindPos, "Churn destination locality needs both from (a switch) and to (a list of switches)")
			return
		}
		if locality < 0 {
			c.failf(localityPos, "Churn locality must be non-negative, got %v", locality)
			return
		}
		if !c.switches[from.Text] {
			c.what(from, "a switch", "in a Churn from")
			return
		}
		ch.from = from.Text
		for _, n := range dests {
			if !c.switches[n.Text] {
				c.what(n, "a switch", "in a Churn to")
				return
			}
			if n.Text == from.Text {
				c.failf(n.Pos, "Churn destination %q is the origin itself", n.Text)
				return
			}
			ch.dests = append(ch.dests, n.Text)
		}
		// Zipf over list order: the k-th destination gets weight
		// 1/(k+1)^locality (locality 0 = uniform). The CDF is fixed at
		// compile so every arrival pays one uniform draw and a search.
		sum := 0.0
		for k := range ch.dests {
			sum += math.Pow(float64(k+1), -locality)
			ch.destCDF = append(ch.destCDF, sum)
		}
		c.out.churns = append(c.out.churns, ch)
		return
	}
	if len(pathLists) == 0 {
		c.failf(d.KindPos, "Churn needs a path pool (paths [A -> B, A -> C]) or destination locality (from A, to [B, C])")
		return
	}
	for _, p := range pathLists {
		nodes := c.pathNodes(p)
		if nodes == nil {
			return
		}
		ch.paths = append(ch.paths, nodes)
	}
	c.out.churns = append(c.out.churns, ch)
}

// schedule arms the arrival process on the engine.
func (ch *churnRun) schedule(s *Sim) {
	ch.rng = sim.DeriveRNG(s.Seed, "churn:"+ch.name)
	ch.streams = churnStreams(s.Seed, ch.name)
	ch.s, ch.depart = s, ch.departCall
	// Arrivals are control events: admission, source attachment and
	// departure scheduling all run between shard windows (and in the same
	// relative order sequentially, thanks to the control key).
	eng := s.Net.Engine()
	var arrive func()
	arrive = func() {
		if eng.Now() > s.Horizon || s.draining {
			return
		}
		ch.doArrival(s)
		eng.AtControl(eng.Now()+ch.rng.Exp(ch.every), arrive)
	}
	eng.AtControl(ch.rng.Exp(ch.every), arrive)
}

// churnStreams derives the churn's per-call source streams: call k's is the
// stream named "churn:" + name + ":" + k.
func churnStreams(seed int64, name string) sim.Family {
	return sim.NewFamily(seed, "churn:"+name+":")
}

// doArrival admits (or not) one churn flow, attaches its source, and
// schedules its departure. The per-arrival draws (path, hold) happen
// unconditionally, so the stream position is independent of admission
// outcomes.
func (ch *churnRun) doArrival(s *Sim) {
	eng := s.Net.Engine()
	now := eng.Now()
	ch.arrivals++
	var path []string
	if ch.dests != nil {
		// Destination mode: draw the (Zipf-skewed) destination, then let
		// the network resolve the route — through the route cache when one
		// is installed. An unroutable destination flows into issueRequest
		// as an invalid path and is counted as a rejection, like any other
		// refused arrival.
		path = s.Net.LookupRoute(ch.from, ch.dests[ch.drawDest()])
	} else {
		path = ch.paths[0]
		if len(ch.paths) > 1 {
			path = ch.paths[ch.rng.Intn(len(ch.paths))]
		}
	}
	holdFor := ch.rng.Exp(ch.hold)
	id := s.allocID()
	f, err := s.issueRequest(&flowReq{kind: ch.service, id: id, nodes: path, p: ch.p, class: -1})
	if err != nil {
		ch.rejected++
		return
	}
	ch.admitted++
	f.MeterInto(ch.newMeter())

	call := &churnCall{flow: f, live: len(ch.live)}
	ch.live = append(ch.live, call)
	call.rng.Init(ch.streams.SeedOf(ch.arrivals))
	if ch.srcKind == "cbr" {
		call.cbr.Init(source.CBRConfig{SizeBits: ch.size, Rate: ch.pps, RNG: &call.rng})
		call.cbr.SetPool(f.IngressPool())
		call.cbr.StartTo(f.IngressEngine(), f)
		call.src = &call.cbr
	} else {
		call.poisson.Init(source.PoissonConfig{SizeBits: ch.size, Rate: ch.pps, RNG: &call.rng})
		call.poisson.SetPool(f.IngressPool())
		call.poisson.StartTo(f.IngressEngine(), f)
		call.src = &call.poisson
	}
	eng.AtCallKeyed(now+holdFor, sim.KeyControl, ch.depart, call)
}

// departCall is a call's departure: its source stops, the network releases
// it, and it leaves the live set.
func (ch *churnRun) departCall(arg any) {
	call := arg.(*churnCall)
	source.StopSource(call.src)
	last := ch.live[len(ch.live)-1]
	ch.live[call.live], last.live = last, call.live
	ch.live[len(ch.live)-1] = nil
	ch.live = ch.live[:len(ch.live)-1]
	ch.s.Net.Release(call.flow.ID)
	ch.departed++
	if ch.service != "Datagram" {
		ch.s.noteDeparture(ch.s.Net.Engine().Now())
	}
}

// report is the churn's row: what merging every admitted call's delay
// recorder in arrival order gives — the calls' sums folded in that order, the
// maximum and percentiles of all their samples, and as many deliveries as
// samples.
func (ch *churnRun) report(pcts []float64) ChurnReport {
	sum := 0.0
	for _, b := range ch.meters {
		for i := range b {
			sum += b[i].sum
		}
	}
	mean, n := 0.0, ch.delays.Count()
	if n > 0 {
		mean = sum / float64(n)
	}
	cr := ChurnReport{
		Name:      ch.name,
		Arrivals:  ch.arrivals,
		Admitted:  ch.admitted,
		Rejected:  ch.rejected,
		Departed:  ch.departed,
		Delivered: int64(n),
		MeanMS:    mean * 1e3,
		MaxMS:     ch.delays.Max() * 1e3,
	}
	for _, p := range pcts {
		cr.PctMS = append(cr.PctMS, ch.delays.Percentile(p)*1e3)
	}
	return cr
}

// newMeter returns the next admitted call's meter.
func (ch *churnRun) newMeter() *callMeter {
	if k := len(ch.meters); k == 0 || len(ch.meters[k-1]) == meterBlock {
		ch.meters = append(ch.meters, make([]callMeter, 0, meterBlock))
	}
	b := &ch.meters[len(ch.meters)-1]
	*b = append(*b, callMeter{all: &ch.delays})
	return &(*b)[len(*b)-1]
}

// drawDest picks a destination index with probability proportional to its
// compile-time Zipf weight. One uniform draw per arrival, whatever the
// outcome, so the churn's random stream position never depends on admission
// or routing results.
func (ch *churnRun) drawDest() int {
	u := ch.rng.Float64() * ch.destCDF[len(ch.destCDF)-1]
	i := sort.SearchFloat64s(ch.destCDF, u)
	if i >= len(ch.dests) {
		i = len(ch.dests) - 1
	}
	return i
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

	delays   []*stats.TimeSeries // per-flow delivery delays, in tap order
	admitted *stats.TimeSeries   // admission grants (count per interval)
	rejected *stats.TimeSeries
	departed *stats.TimeSeries
	util     []float64 // per-interval busiest-link utilization

	ports    []*topology.Port
	prevBits []float64 // per-port cumulative tx bits at the last tick
}

func newTraceRec(dt, horizon float64) *traceRec {
	// The epsilon keeps float truncation from eating the last interval
	// (10/0.1 is 99.999… in float64).
	return &traceRec{
		dt:       dt,
		nfull:    int(horizon/dt + 1e-9),
		admitted: stats.NewTimeSeries(dt),
		rejected: stats.NewTimeSeries(dt),
		departed: stats.NewTimeSeries(dt),
	}
}

// row assembles trace interval k — shared by the final report and the live
// TraceRows stream, so the two are byte-identical row for row.
func (tr *traceRec) row(k int) TraceRow {
	d := tr.delayBin(k)
	row := TraceRow{
		Interval:  k,
		Start:     float64(k) * tr.dt,
		End:       float64(k+1) * tr.dt,
		Delivered: d.N,
		MeanMS:    d.Mean() * 1e3,
		MaxMS:     d.Max * 1e3,
		Admitted:  tr.admitted.Bin(k).N,
		Rejected:  tr.rejected.Bin(k).N,
		Departed:  tr.departed.Bin(k).N,
	}
	if k < len(tr.util) {
		row.Util = tr.util[k]
	}
	return row
}

// delayBin merges the per-flow delay series for interval i. TimeBin fields
// are sums and a max, so merging in registration order gives the same bin in
// sequential and sharded runs.
func (tr *traceRec) delayBin(i int) stats.TimeBin {
	var b stats.TimeBin
	for _, ts := range tr.delays {
		x := ts.Bin(i)
		b.N += x.N
		b.Sum += x.Sum
		if x.Max > b.Max {
			b.Max = x.Max
		}
	}
	return b
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
	// Ticks are control events: on a sharded network the coordinator
	// barriers at every tick time, so TxBits is read with all shards
	// parked exactly at the interval boundary — the same counter values a
	// sequential run reads (control sorts before same-time data events).
	eng.AtControl(tr.dt, tick)
}
