package scenario

import (
	"ispn/internal/core"
	"ispn/internal/packet"
	"ispn/internal/sim"
	"ispn/internal/source"
	"ispn/internal/tcp"
)

// elementAvailable enforces the arrival-time rule: an element declared in an
// at block exists from that block's time on, so a static statement may not
// use it at all and a statement at time at (dynamic) may not use it earlier.
// stmt names the using statement ("event", or a verb); compiled is false for
// a flow whose declaration has not compiled yet — statements compile in file
// order.
func (c *compiler) elementAvailable(n Name, kind string, at float64, dynamic, compiled bool, stmt string) {
	if !c.dynNames[n.Text] {
		return
	}
	if !dynamic {
		obj := "it"
		if kind == "flow" {
			obj = "its traffic"
		}
		c.failf(n.Pos, "%s %q arrives inside an at block; attach %s inside that at block", kind, n.Text, obj)
	}
	t, ok := c.declAt[n.Text]
	if !ok || !compiled {
		c.failf(n.Pos, "%s %q is declared in a later at block; statements compile in file order, so move that block earlier", kind, n.Text)
	}
	if t > at {
		c.failf(n.Pos, "%s %q does not arrive until %vs (this %s is at %vs)", kind, n.Text, t, stmt, at)
	}
}

// flowAt resolves the flow a statement at time at names, as it stands then:
// the tail of an attachment chain (verb "") or the target of a timeline verb.
func (c *compiler) flowAt(n Name, at float64, dynamic bool, verb string) *SimFlow {
	wanted, context, stmt := "a Guaranteed/Predicted/Datagram flow", "at the end of an attachment", "event"
	if verb != "" {
		wanted, context, stmt = "a flow", "in a "+verb, verb
	}
	if d, ok := c.decls[n.Text]; !ok || d.class() != classFlow {
		c.what(n, wanted, context)
	}
	sf := c.flows[n.Text]
	c.elementAvailable(n, "flow", at, dynamic, sf != nil, stmt)
	return sf
}

// what fails on a name that is not what the context needs, saying what it
// actually is.
func (c *compiler) what(n Name, wanted, context string) {
	if d, ok := c.decls[n.Text]; ok {
		c.failf(n.Pos, "%q is a %s, not %s %s", n.Text, d.Kind, wanted, context)
	} else {
		c.failf(n.Pos, "unknown name %q %s", n.Text, context)
	}
}

// pathNodes validates that a path argument names existing switches joined by
// existing links, returning the node names.
func (c *compiler) pathNodes(path []Name) []string {
	nodes := make([]string, len(path))
	for i, n := range path {
		if !c.switches[n.Text] {
			c.what(n, "a switch", "in a path")
		}
		nodes[i] = n.Text
	}
	for i := 0; i < len(nodes)-1; i++ {
		if !c.hasLink(nodes[i], nodes[i+1]) {
			c.failf(path[i].Pos, "path needs a link %s -> %s, but none is declared", nodes[i], nodes[i+1])
		}
	}
	return nodes
}

func (c *compiler) allocID() uint32 {
	id := c.nextID
	c.nextID++
	return id
}

// flowDecl compiles a flow declaration. With dynamic false the request
// happens now and a rejection is a compile error (a static scenario that
// cannot be admitted is malformed). With dynamic true the request is
// deferred into one timeline event at time at — the flow passes through
// admission mid-run and a rejection is a *result*, counted in the report,
// not an error.
func (c *compiler) flowDecl(d *Decl, at float64, dynamic bool) {
	a := c.argsOf(d)
	nodes := c.pathNodes(a.path("path", true))
	var reqs []flowReq
	var sfs []*SimFlow
	if dynamic {
		reqs, sfs = make([]flowReq, len(d.Names)), make([]*SimFlow, len(d.Names))
	}
	for i, n := range d.Names {
		req := flowReq{kind: d.Kind, id: c.allocID(), nodes: nodes, class: -1}
		switch d.Kind {
		case "Guaranteed":
			req.g = core.GuaranteedSpec{
				ClockRate:  a.bitrate("rate", 0),
				BucketBits: a.bits("bucket", DefaultBucketPkt*DefaultPktBits),
			}
		case "Predicted":
			req.p = core.PredictedSpec{
				TokenRate:  a.bitrate("rate", 0),
				BucketBits: a.bits("bucket", DefaultBucketPkt*DefaultPktBits),
				Delay:      a.duration("delay", 0.5),
				Loss:       a.fraction("loss", 0.01),
			}
			req.class = a.count("class", -1)
		}
		a.finish()
		sf := one(&c.flowSlab)
		*sf = SimFlow{Name: n.Text, Kind: d.Kind, At: at, dynamic: dynamic}
		c.flows[n.Text] = sf
		c.out.Flows = append(c.out.Flows, sf)
		if dynamic {
			reqs[i], sfs[i] = req, sf
			continue
		}
		// Every name of the declaration has the same arguments, so issuing
		// each as soon as it is read fails where issuing after the last
		// would: at the first rejection, with the same ids handed out.
		f, err := req.issue(c.net)
		if err != nil {
			c.failf(d.KindPos, "%s %q rejected: %v", d.Kind, sf.Name, err)
		}
		sf.Flow = f
		c.out.tapFlow(f)
	}
	if dynamic {
		c.out.events = append(c.out.events, simEvent{at: at, fn: func(s *Sim) {
			for i, sf := range sfs {
				s.requestFlow(sf, &reqs[i])
			}
		}})
	}
}

// tcpDecl compiles a TCP declaration. ACKs return along the reverse of the
// path.
func (c *compiler) tcpDecl(d *Decl) {
	a := c.argsOf(d)
	nodes := c.pathNodes(a.path("path", true))
	back := make([]string, len(nodes))
	for i, s := range nodes {
		back[len(nodes)-1-i] = s
	}
	for i := 0; i < len(back)-1; i++ {
		if !c.hasLink(back[i], back[i+1]) {
			c.failf(d.KindPos, "TCP ACKs need a reverse link %s -> %s; declare it (or the whole path with <->)",
				back[i], back[i+1])
		}
	}
	startAt := a.duration("start", 0)
	a.finish()
	for _, n := range d.Names {
		conn := tcp.NewConnection(c.net.Topology(), tcp.Config{
			DataFlowID: c.allocID(), AckFlowID: c.allocID(), Path: nodes, ReversePath: back,
		})
		st := &SimTCP{Name: n.Text, Conn: conn, StartAt: startAt}
		c.out.TCPs = append(c.out.TCPs, st)
		eng := c.net.Engine()
		if startAt > 0 {
			//ispnvet:allow keyedevents: start events are registered in fixed compile order before the run begins, so the insertion-sequence tiebreak is the same on every run
			c.out.starts = append(c.out.starts, func() { eng.At(st.StartAt, conn.Start) })
		} else {
			c.out.starts = append(c.out.starts, conn.Start)
		}
	}
}

// attachChain wires source -> [TokenBucket ->]* flow. With dynamic true the
// chain lives in an at block: the source is built now but started at event
// time — and only if the flow was actually admitted.
func (c *compiler) attachChain(ch *Chain, at float64, dynamic bool) {
	for i, dup := range ch.Duplex {
		if dup {
			c.failf(ch.Ends[i].Pos, `attachments are directional; use "->"`)
		}
	}
	if len(ch.Attrs) > 0 {
		c.failf(ch.Ends[0].Pos, "Link(...) attributes only apply to links between switches")
	}
	head := ch.Ends[0]
	srcDecl, ok := c.decls[head.Text]
	if !ok || srcDecl.class() != classSource {
		c.what(head, "a traffic source or switch", "at the head of a chain")
	}
	c.elementAvailable(head, srcDecl.Kind, at, dynamic, true, "event")
	flow := c.flowAt(ch.Ends[len(ch.Ends)-1], at, dynamic, "")
	if dynamic {
		// An injected attachment is always dynamic: journal what it
		// appends to, for a refused injection to truncate back. (The
		// file's own at blocks journal too; the first injection resets
		// the journal.)
		c.touched = append(c.touched, flowLists{flow, len(flow.filters), len(flow.sources)})
	}
	// Middle elements must be TokenBucket filters, each used once.
	src := c.buildSource(srcDecl, head, flow)
	for _, mid := range ch.Ends[1 : len(ch.Ends)-1] {
		fd, ok := c.decls[mid.Text]
		if !ok || fd.class() != classFilter {
			c.what(mid, "a TokenBucket", "in the middle of an attachment")
		}
		c.elementAvailable(mid, fd.Kind, at, dynamic, true, "event")
		if c.attached[mid.Text] > 0 {
			c.failf(mid.Pos, "TokenBucket %q is already in use; buckets hold state and serve one chain", mid.Text)
		}
		c.attached[mid.Text]++
		a := c.argsOf(fd)
		rate := a.pktRate("rate", 0)
		depth := float64(a.count("depth", DefaultBucketPkt))
		a.finish()
		if rate <= 0 {
			c.failf(fd.KindPos, "TokenBucket requires a positive rate (packets/s)")
		}
		if depth == 0 {
			pos, _ := a.given("depth")
			c.failf(pos, "TokenBucket requires a depth of at least 1 packet")
		}
		pol := source.NewPoliced(src, rate, depth)
		flow.filters = append(flow.filters, pol)
		src = pol
	}
	c.attached[head.Text]++
	if c.attached[head.Text] > 1 {
		c.failf(head.Pos, "source %q is already attached; a source feeds one flow", head.Text)
	}
	c.startSource(src, srcDecl, flow, at, dynamic)
}

// buildSource constructs the generator for one attachment. Class and
// priority are stamped by Flow.Inject, so the source only needs rates and
// sizes.
func (c *compiler) buildSource(d *Decl, n Name, flow *SimFlow) source.Source {
	a := c.argsOf(d)
	rng := sim.DeriveRNG(c.seed, "src:"+n.Text)
	size := int(a.bits("size", DefaultPktBits))
	if size <= 0 {
		c.failf(d.KindPos, "%s requires a positive packet size, got %d bits", d.Kind, size)
	}
	var peak, avg, burst, rate float64
	if d.Kind == "Markov" {
		peak, avg, burst = a.pktRate("peak", 0), a.pktRate("avg", 0), float64(a.count("burst", 5))
	} else {
		rate = a.pktRate("rate", 0)
	}
	a.finish()
	switch {
	case d.Kind == "Markov" && (avg <= 0 || peak <= avg):
		c.failf(d.KindPos, "Markov needs 0 < avg < peak (got avg %v, peak %v)", avg, peak)
	case d.Kind == "Markov" && burst < 1:
		pos, _ := a.given("burst")
		c.failf(pos, "Markov needs a mean burst of at least 1 packet")
	case d.Kind != "Markov" && rate <= 0:
		c.failf(d.KindPos, "%s requires a positive rate (packets/s)", d.Kind)
	}
	switch d.Kind {
	case "Markov":
		return source.NewMarkov(source.MarkovConfig{
			SizeBits: size, PeakRate: peak, AvgRate: avg, Burst: burst, RNG: rng,
		})
	case "CBR":
		return source.NewCBR(source.CBRConfig{SizeBits: size, Rate: rate, RNG: rng})
	}
	return source.NewPoisson(source.PoissonConfig{SizeBits: size, Rate: rate, RNG: rng})
}

// startSource defers the actual Start into Sim.Run — for a static chain via
// the Sim's source starts, for a timeline chain via an event at the block's
// time.
func (c *compiler) startSource(src source.Source, d *Decl, flow *SimFlow, at float64, dynamic bool) {
	a := c.argsOf(d)
	st := sourceStart{src: src, flow: flow, at: at, startAt: a.duration("start", 0)}
	if flow.sources == nil {
		grow(&c.sourceSlab)
		flow.sources = closeList(&c.sourceSlab)[:0]
	}
	flow.sources = append(flow.sources, src)
	if dynamic {
		p := new(sourceStart)
		*p = st
		c.out.events = append(c.out.events, simEvent{at: at, fn: p.fire})
		return
	}
	c.out.sourceStarts = append(c.out.sourceStarts, st)
}

// sourceStart is one attachment's deferred start. It starts the source only
// if the flow was admitted (and not yet removed), since only then do its
// ingress engine and pool exist.
type sourceStart struct {
	src     source.Source
	flow    *SimFlow
	at      float64 // the attachment's block time; 0 for a static chain
	startAt float64 // the source's start argument
}

func (st *sourceStart) fire(s *Sim) {
	if st.flow.Flow == nil || st.flow.removed {
		return
	}
	f, src := st.flow.Flow, st.src
	source.AttachPool(src, f.IngressPool())
	eng := s.Net.Engine()
	begin := func() {
		if s.draining {
			return
		}
		src.Start(eng, func(p *packet.Packet) { f.Inject(p) })
	}
	if st.startAt > st.at {
		//ispnvet:allow keyedevents: scheduled from Start in fixed compile order before the run begins, or from inside an already-keyed at-block, which fires at a fixed point of its instant; either way the insertion-sequence tiebreak is the same on every run
		eng.At(st.startAt, begin)
	} else {
		begin()
	}
}

// FlowByName returns the compiled flow with the given scenario name, or nil.
func (s *Sim) FlowByName(name string) *SimFlow {
	for _, f := range s.Flows {
		if f.Name == name {
			return f
		}
	}
	return nil
}
