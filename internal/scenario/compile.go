package scenario

import (
	"ispn/internal/core"
	"ispn/internal/invariant"
	"ispn/internal/source"
	"ispn/internal/tcp"
)

// Options adjusts a compile without editing the file.
type Options struct {
	// Seed, when non-nil, overrides the file's Run seed (a pointer, so
	// `-seed 0` means seed 0). The seed feeds every random stream,
	// including seeded topology generators.
	Seed *int64
	// Horizon overrides the file's Run horizon (simulated seconds) when
	// positive.
	Horizon float64
	// Trace overrides the file's Run trace interval (simulated seconds)
	// when positive, turning on per-interval trace rows for scenarios that
	// never asked for them — the serve control plane uses this so a live
	// session can always stream /trace.
	Trace float64
	// Check attaches the invariant oracle: per-delivery bound checks,
	// periodic conservation/capacity sweeps, and a post-horizon leak check.
	// The report grows an "invariants" section (and only then — unchecked
	// reports are byte-for-byte what they always were).
	Check bool
}

// Defaults a scenario starts from when its file leaves a knob unset.
const (
	DefaultSeed      = 1992 // the paper's year
	DefaultHorizon   = 60.0 // seconds
	DefaultPktBits   = 1000 // bits
	DefaultBucketPkt = 50   // token bucket depth in packets (the paper's 50)
	DefaultCacheSize = 64   // RouteCache entries when the element names no size
)

// DefaultPercentiles are reported when a Run declaration names none.
var DefaultPercentiles = []float64{0.50, 0.99, 0.999}

// Sim is a compiled, runnable scenario.
type Sim struct {
	File        *File
	Net         *core.Network
	Seed        int64
	Horizon     float64
	Percentiles []float64
	Flows       []*SimFlow
	TCPs        []*SimTCP
	// starts are the deferred starts of the TCP connections, then
	// sourceStarts those of the static attachment chains: compile pass 5
	// declares every connection before pass 6 attaches any source, so
	// running the two lists in turn is compile order.
	starts       []func()
	sourceStarts []sourceStart
	report       *Report

	// comp is the compiler that produced this Sim, retained so timeline
	// verbs can be compiled against the live scenario after the fact
	// (InjectEvents); started records that Start has scheduled the
	// timeline and armed the sources.
	comp    *compiler
	started bool

	// oracle is the invariant checker when Options.Check asked for one;
	// draining gates deferred starts and post-horizon timeline events while
	// the leak check drains the network past the horizon.
	oracle   *invariant.Oracle
	draining bool

	// Timeline state: scripted events in file order, churn processes,
	// the optional per-interval trace, the runtime flow-id allocator, and
	// the admission ledgerbook the report prints.
	events   []simEvent
	churns   []*churnRun
	trace    *traceRec
	nextID   uint32
	adm      AdmissionTotals
	warnings []string

	// routingOn records that the scenario configured rerouting (Net
	// routing argument or a Reroute element), so the report prints the
	// routing section even when no reroute ever fired.
	routingOn bool
}

// AdmissionTotals counts runtime service requests (scripted events, churn
// arrivals, renegotiations). Compile-time flows are unconditional and do not
// count; datagram flows make no commitment and do not count either.
type AdmissionTotals struct {
	Requested int64 `json:"requested"`
	Admitted  int64 `json:"admitted"`
	Rejected  int64 `json:"rejected"`
	Departed  int64 `json:"departed"`
}

// hasTimeline reports whether the scenario has any dynamic behavior.
func (s *Sim) hasTimeline() bool { return len(s.events) > 0 || len(s.churns) > 0 }

// SimFlow is one scenario flow with its name and attached traffic. A flow
// declared inside an "at" block is requested at event time: until then (and
// forever, if admission rejects it) Flow is nil.
type SimFlow struct {
	Name string
	Kind string // Guaranteed / Predicted / Datagram
	Flow *core.Flow

	// At is the simulated time the flow is requested (0 = at compile).
	At float64
	// Rejected is set when a timeline request fails admission; Reason
	// carries the diagnostic. Departed is set when a remove event fires.
	Rejected bool
	Reason   string
	Departed bool

	removed bool
	sources []source.Source   // attached sources (stopped on departure)
	filters []*source.Policed // TokenBucket elements feeding this flow
}

// EdgeDropped counts packets refused entry: by the flow's own edge policer
// and by any TokenBucket filters on its attachment chains.
func (f *SimFlow) EdgeDropped() int64 {
	var n int64
	if f.Flow != nil {
		n = f.Flow.PolicerStats().Dropped
	}
	for _, p := range f.filters {
		n += p.Stats().Dropped
	}
	return n
}

// SimTCP is one TCP connection with its scenario name.
type SimTCP struct {
	Name    string
	Conn    *tcp.Connection
	StartAt float64
}

// Compile lowers a parsed file onto a fresh network. The returned Sim has
// every switch, link, flow, and connection wired and every source armed;
// call Run to simulate.
func Compile(f *File, opts Options) (_ *Sim, err error) {
	defer catch(&err)
	c := &compiler{file: f, opts: opts}
	return c.compile(), nil
}

// Load is ParseFile followed by Compile.
func Load(path string, opts Options) (*Sim, error) {
	f, err := ParseFile(path)
	if err != nil {
		return nil, err
	}
	return Compile(f, opts)
}

// Run starts every source and connection, schedules the timeline (scripted
// events in file order, churn arrival processes, trace ticks), advances the
// engine to the horizon, and summarizes. Subsequent calls return the same
// report. Everything — including same-timestamp ordering — is deterministic:
// the engine breaks time ties by insertion sequence and every random stream
// derives from (seed, element name).
func (s *Sim) Run() *Report {
	if s.report != nil {
		return s.report
	}
	s.Start()
	return s.Finish()
}

// Start schedules the timeline (scripted and injected events in order, churn
// arrival processes, trace ticks), arms the oracle, and starts every source
// and connection — the setup half of Run, without advancing the clock.
// Stepped runs (the serve control plane) call Start once, then StepTo
// repeatedly, then Finish; Run is exactly that sequence in one call, so the
// two styles are bit-identical. Start is idempotent.
func (s *Sim) Start() {
	if s.started {
		return
	}
	s.started = true
	s.arm(s.events)
	for _, ch := range s.churns {
		ch.schedule(s)
	}
	if s.trace != nil {
		s.trace.arm(s)
	}
	if s.oracle != nil {
		s.oracle.Arm(s.Horizon)
	}
	for _, fn := range s.starts {
		fn()
	}
	for i := range s.sourceStarts {
		s.sourceStarts[i].fire(s)
	}
}

// arm schedules timeline events — Start's whole timeline, or what an
// injection adds to a running one. They are control events: the control key
// makes them sort before same-time data events, whether they were scheduled
// at Start or injected later.
func (s *Sim) arm(events []simEvent) {
	eng := s.Net.Engine()
	for _, ev := range events {
		eng.AtControl(ev.at, func() {
			if s.draining {
				return // a -horizon override left this event past the end
			}
			ev.fn(s)
		})
	}
}

// Now returns the simulation clock in seconds.
func (s *Sim) Now() float64 { return s.Net.Engine().Now() }

// Done reports whether the simulation has reached its horizon.
func (s *Sim) Done() bool { return s.started && s.Now() >= s.Horizon }

// StepTo advances the simulation to absolute time t, clamped to the horizon
// (calling Start first if needed). Between calls the engine is parked, so
// callers may inspect live state and inject events — the safe external
// intervention points the serve control plane uses. A run advanced in steps
// is bit-identical to one advanced in a single Run call.
func (s *Sim) StepTo(t float64) {
	s.Start()
	if t > s.Horizon {
		t = s.Horizon
	}
	now := s.Net.Engine().Now()
	if t <= now {
		return
	}
	s.Net.Run(t - now)
}

// Finish advances to the horizon if needed and builds the report (running
// the oracle's post-horizon drain when checks are on). Subsequent calls
// return the same report.
func (s *Sim) Finish() *Report {
	if s.report != nil {
		return s.report
	}
	s.StepTo(s.Horizon)
	s.report = s.buildReport()
	if s.oracle != nil {
		// The report above is frozen at the horizon; now stop all traffic,
		// let in-flight packets finish, and ask the oracle whether every
		// packet made it back to a free list.
		s.quiesce()
		s.oracle.CheckLeaks(s.Net.Engine().Now())
		t := s.oracle.Totals()
		s.report.Check = &CheckReport{Deliveries: t.Deliveries, Sweeps: t.Sweeps, Violations: t.Violations}
	}
	return s.report
}

// Admission returns the runtime admission totals so far (scripted events,
// churn arrivals, renegotiations) — a live snapshot of what the report's
// admission section will print.
func (s *Sim) Admission() AdmissionTotals { return s.adm }

// quiesce stops every traffic generator and drains the network past the
// horizon, so the leak checker can tell "still in flight" from "lost". The
// draining flag gates deferred starts and leftover timeline events; sources,
// churn-spawned sources and TCP endpoints are stopped explicitly.
func (s *Sim) quiesce() {
	s.draining = true
	for _, sf := range s.Flows {
		for _, src := range sf.sources {
			source.StopSource(src)
		}
	}
	for _, ch := range s.churns {
		for _, call := range ch.live {
			call.cbr.Stop()
		}
	}
	for _, t := range s.TCPs {
		t.Conn.Stop()
	}
	// Bounded drain rounds: each extends simulated time, which flushes
	// queues and in-flight transmissions. A clean run
	// settles in a round or two; a leak never settles and is reported.
	for i := 0; i < 40 && !s.oracle.Settled(); i++ {
		s.Net.Run(0.5)
	}
}

type compiler struct {
	file *File
	opts Options

	seed        int64
	horizon     float64
	fileHorizon float64 // the file's own horizon, before Options overrides
	minAt       float64 // injection floor: at blocks may not predate the live clock
	percentiles []float64
	traceDt     float64

	net        *core.Network
	netRouting string           // the Net "routing" argument: "", "static" or "auto"
	decls      map[string]*Decl // element name -> declaring decl
	switches   map[string]bool  // includes generator-produced names
	attached   map[string]int   // source/filter element name -> use count
	// dynNames marks every event-declared element (known from pass 1);
	// declAt records each one's block time (filled as blocks compile, in
	// file order). Together they let chains reject uses of an element
	// before it exists.
	dynNames map[string]bool
	declAt   map[string]float64

	flows  map[string]*SimFlow
	nextID uint32

	// flowSlab and sourceSlab hold the file's flows and each flow's first
	// source slot, sized from the declarations before they compile.
	flowSlab   slab[SimFlow]
	sourceSlab slab[source.Source]

	// touched journals, per at-block attachment, the lengths its flow's
	// filters and sources had before it, so a refused injection can
	// truncate them back.
	touched []flowLists

	out *Sim
}

// failf stops the compile at a positioned error: it panics a bailout, which
// Compile's (or the injection's) catch returns.
func (c *compiler) failf(pos Pos, format string, args ...any) {
	panic(bailout{errf(c.file.Path, pos, format, args...)})
}

func (c *compiler) compile() *Sim {
	// Size the symbol tables and the flow and source storage from the
	// declarations.
	var names, switches, flows, sources int
	c.eachDecl(func(d *Decl) {
		names += len(d.Names)
		if e := d.row(); e != nil {
			switch e.class {
			case classSwitch:
				switches += len(d.Names)
			case classFlow:
				flows += len(d.Names)
			case classSource:
				sources += len(d.Names)
			}
		}
	})
	c.decls = make(map[string]*Decl, names)
	c.switches = make(map[string]bool, switches)
	c.attached = make(map[string]int, sources)
	c.dynNames = make(map[string]bool)
	c.declAt = make(map[string]float64)
	c.flows = make(map[string]*SimFlow, flows)
	c.flowSlab.chunk = make([]SimFlow, flows)
	c.sourceSlab.chunk = make([]source.Source, sources)
	c.nextID = 1

	// Pass 1: register every declared name and locate the configuration
	// elements, at most one of each kind. Event-block declarations share the
	// namespace (a timeline flow can be removed or renewed by name like any
	// other); see registerArrivals.
	config := map[string]*Decl{}
	for _, d := range c.file.Decls {
		e := c.elementOf(d)
		if (e.class == classGenerator || e.class == classChurn) && len(d.Names) != 1 {
			c.failf(d.Names[1].Pos, "%s takes exactly one name", d.Kind)
		}
		c.register(d)
		if e.class == classConfig {
			if first := config[d.Kind]; first != nil {
				c.failf(d.KindPos, "duplicate %s declaration (first at line %d)", d.Kind, first.KindPos.Line)
			}
			config[d.Kind] = d
		}
	}
	c.registerArrivals(c.file.Events)

	// Pass 2: run knobs, then the network itself.
	c.runKnobs(config["Run"])
	cfg := c.netConfig(config["Net"])
	c.net = core.New(cfg)
	c.out = &Sim{
		File:         c.file,
		Net:          c.net,
		Seed:         c.seed,
		Horizon:      c.horizon,
		Percentiles:  c.percentiles,
		Flows:        make([]*SimFlow, 0, flows),
		sourceStarts: make([]sourceStart, 0, sources),
	}
	if c.opts.Check {
		// Attach before any flow exists so compile-time flows are watched
		// from their first packet.
		c.out.oracle = invariant.Attach(c.net)
	}
	if c.traceDt > 0 {
		c.out.trace = newTraceRec(c.traceDt, c.horizon, c.net.Engine())
	}
	c.setupRouting(config["Reroute"])
	c.setupCache(config["RouteCache"])

	// Pass 3: topology — switch declarations and generators, in order.
	for _, d := range c.file.Decls {
		switch d.class() {
		case classSwitch:
			for _, n := range d.Names {
				c.addSwitch(n.Text, n.Pos)
			}
			c.argsOf(d).finish()
		case classGenerator:
			c.generate(d)
		}
	}

	// Pass 4: explicit links (chains whose endpoints are all switches).
	attachments := make([]*Chain, 0, len(c.file.Chains))
	for _, ch := range c.file.Chains {
		if c.isLinkChain(ch) {
			c.linkChain(ch)
		} else {
			attachments = append(attachments, ch)
		}
	}

	// Pass 5: flows, TCP connections, and churn processes, in declaration
	// order (ids are assigned sequentially, so reports and random streams
	// are stable).
	for _, d := range c.file.Decls {
		switch d.class() {
		case classFlow:
			c.flowDecl(d, 0, false)
		case classTCP:
			c.tcpDecl(d)
		case classChurn:
			c.churnDecl(d)
		}
	}

	// Pass 6: attachment chains (source -> [TokenBucket ->] flow).
	for _, ch := range attachments {
		c.attachChain(ch, 0, false)
	}

	// Pass 7: the timeline, block by block in file order. Each statement
	// becomes one engine event at the block's time, so same-timestamp
	// blocks and statements fire in file order.
	for _, b := range c.file.Events {
		c.eventBlock(b)
	}

	// Validator epilogue: every traffic element must be used.
	c.eachDecl(func(d *Decl) {
		if cls := d.class(); cls != classSource && cls != classFilter {
			return
		}
		for _, n := range d.Names {
			if c.attached[n.Text] == 0 {
				c.failf(n.Pos, "%s %q is never attached to a flow (add: %s -> someflow)", d.Kind, n.Text, n.Text)
			}
		}
	})
	c.out.nextID = c.nextID
	c.out.comp = c
	return c.out
}

// register adds d's names to the one namespace the file's declarations and
// its at blocks share.
func (c *compiler) register(d *Decl) {
	for _, n := range d.Names {
		if prev, dup := c.decls[n.Text]; dup {
			c.failf(n.Pos, "name %q already declared as %s at line %d", n.Text, prev.Kind, prev.Names[0].Pos.Line)
		}
		c.decls[n.Text] = d
	}
}

// registerArrivals is pass 1 for at blocks, a file's own or an injection's:
// every element a block declares is registered and marked as arriving
// mid-run, which puts each use of it under the arrival-time rule
// (elementAvailable). Only flows, sources and filters may arrive — topology,
// config and TCP connections are static.
func (c *compiler) registerArrivals(blocks []*EventBlock) {
	for _, b := range blocks {
		for _, st := range b.Stmts {
			d := st.Decl
			if d == nil {
				continue
			}
			switch c.elementOf(d).class {
			case classFlow, classSource, classFilter:
			default:
				c.failf(d.KindPos, "%s cannot be declared inside an at block (only flows, sources and TokenBucket filters arrive mid-run)", d.Kind)
			}
			c.register(d)
			for _, n := range d.Names {
				c.dynNames[n.Text] = true
			}
		}
	}
}

// eachDecl calls fn on every declaration — top-level and event-block — in
// file order.
func (c *compiler) eachDecl(fn func(*Decl)) {
	for _, d := range c.file.Decls {
		fn(d)
	}
	for _, b := range c.file.Events {
		for _, st := range b.Stmts {
			if st.Decl != nil {
				fn(st.Decl)
			}
		}
	}
}
