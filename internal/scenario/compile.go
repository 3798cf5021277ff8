package scenario

import (
	"sort"

	"ispn/internal/core"
	"ispn/internal/invariant"
	"ispn/internal/packet"
	"ispn/internal/routing"
	"ispn/internal/sched"
	"ispn/internal/sim"
	"ispn/internal/source"
	"ispn/internal/tcp"
)

// Options adjusts a compile without editing the file.
type Options struct {
	// Seed overrides the file's Run seed when nonzero (or whenever
	// SeedSet says so). The seed feeds every random stream, including
	// seeded topology generators.
	Seed int64
	// SeedSet forces the Seed override even for the value 0, which the
	// zero-sentinel convention above cannot express (the CLI uses this
	// so `-seed 0` means seed 0).
	SeedSet bool
	// Horizon overrides the file's Run horizon (simulated seconds) when
	// positive.
	Horizon float64
	// Shards overrides the file's Net shards count when positive, splitting
	// the network across that many event heaps advanced in lockstep
	// windows (single-threaded). Reports are bit-identical whatever the
	// value.
	Shards int
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
	// CheckBoundScale scales the delay bounds the oracle enforces (0 = 1,
	// the real bounds). Harness tests shrink it to prove the checks bite.
	CheckBoundScale float64
	// ForceCacheScheme installs a destination-locality route cache even when
	// the file declares none, without growing the report — the byte-identity
	// harness uses it to prove cached runs report exactly what uncached runs
	// do. Ignored when the file has its own RouteCache element. Accepts the
	// routing.CacheSchemes names; ForceCacheSize is the entry count (0 =
	// DefaultCacheSize).
	ForceCacheScheme string
	ForceCacheSize   int
}

// Defaults a scenario starts from when its file leaves a knob unset.
const (
	DefaultSeed      = 1992 // the paper's year
	DefaultHorizon   = 60.0 // seconds
	DefaultLinkRate  = 1e6  // bits/s
	DefaultPktBits   = 1000 // bits
	DefaultBucketPkt = 50   // token bucket depth in packets (the paper's 50)
	DefaultCacheSize = 64   // RouteCache entries when the element names no size
)

// DefaultPercentiles are reported when a Run declaration names none.
var DefaultPercentiles = []float64{0.50, 0.99, 0.999}

// elemClass buckets element kinds for chain resolution.
type elemClass int

const (
	classConfig elemClass = iota // Net, Run
	classSwitch
	classGenerator
	classFlow   // Guaranteed, Predicted, Datagram
	classTCP    // TCP
	classSource // Markov, CBR, Poisson
	classFilter // TokenBucket
	classChurn  // Churn (a flow-arrival process, not a single flow)
)

var kindClass = map[string]elemClass{
	"Net": classConfig, "Run": classConfig, "Reroute": classConfig,
	"RouteCache": classConfig,
	"Switch":     classSwitch,
	"Star":       classGenerator, "Dumbbell": classGenerator,
	"ParkingLot": classGenerator, "Random": classGenerator,
	"Guaranteed": classFlow, "Predicted": classFlow, "Datagram": classFlow,
	"TCP":    classTCP,
	"Markov": classSource, "CBR": classSource, "Poisson": classSource,
	"TokenBucket": classFilter,
	"Churn":       classChurn,
}

func kindNames() []string {
	out := make([]string, 0, len(kindClass))
	for k := range kindClass {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Sim is a compiled, runnable scenario.
type Sim struct {
	File        *File
	Net         *core.Network
	Seed        int64
	Horizon     float64
	Percentiles []float64
	Flows       []*SimFlow
	TCPs        []*SimTCP
	// Shards is the effective event-heap count of this compile (0 = the
	// classic one-heap engine).
	Shards int

	starts []func()
	report *Report

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

	// cacheOn records that the *file* declared a RouteCache element — only
	// then does the report print the cache section. A cache forced through
	// Options leaves it false, so forced runs stay byte-identical to plain
	// ones.
	cacheOn bool
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

	dynamic bool
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
func Compile(f *File, opts Options) (*Sim, error) {
	c := &compiler{file: f, opts: opts}
	s := c.compile()
	if c.err != nil {
		return nil, c.err
	}
	return s, nil
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
	// Timeline events are control events: on a sharded network they run at
	// inter-window barriers on the control engine; sequentially the control
	// key makes them sort before same-time data events — the same order.
	eng := s.Net.Engine()
	for _, ev := range s.events {
		ev := ev
		eng.AtControl(ev.at, func() {
			if s.draining {
				return // a -horizon override left this event past the end
			}
			ev.fn(s)
		})
	}
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
}

// Now returns the simulation clock in seconds.
func (s *Sim) Now() float64 { return s.Net.Engine().Now() }

// Done reports whether the simulation has reached its horizon.
func (s *Sim) Done() bool { return s.started && s.Now() >= s.Horizon }

// StepTo advances the simulation to absolute time t, clamped to the horizon
// (calling Start first if needed). Between calls every engine is parked at a
// barrier, so callers may inspect live state and inject events — the safe
// external intervention points the serve control plane uses. A run advanced
// in steps is bit-identical to one advanced in a single Run call, sharded or
// not.
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
		for _, src := range ch.srcs {
			if src != nil {
				source.StopSource(src)
			}
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
	err  *Error

	seed        int64
	horizon     float64
	fileHorizon float64 // the file's own horizon, before Options overrides
	minAt       float64 // injection floor: at blocks may not predate the live clock
	percentiles []float64
	traceDt     float64

	net        *core.Network
	shards     int              // the Net "shards" argument (0 = unsharded)
	shardsPos  Pos              // where shards was requested, for diagnostics
	pins       map[string]int   // Switch(shard N) partition pins
	netRouting string           // the Net "routing" argument: "", "static" or "auto"
	decls      map[string]*Decl // element name -> declaring decl
	switches   map[string]bool  // includes generator-produced names
	links      map[[2]string]bool
	attached   map[string]int // source/filter element name -> use count
	// dynNames marks every event-declared element (known from pass 1);
	// declAt records each one's block time (filled as blocks compile, in
	// file order). Together they let chains reject uses of an element
	// before it exists.
	dynNames map[string]bool
	declAt   map[string]float64

	flows  map[string]*SimFlow
	nextID uint32

	out *Sim
}

func (c *compiler) failf(pos Pos, format string, args ...any) {
	if c.err == nil {
		c.err = errf(c.file.Path, pos, format, args...)
	}
}

func (c *compiler) ok() bool { return c.err == nil }

func (c *compiler) compile() *Sim {
	c.decls = make(map[string]*Decl)
	c.switches = make(map[string]bool)
	c.links = make(map[[2]string]bool)
	c.attached = make(map[string]int)
	c.dynNames = make(map[string]bool)
	c.declAt = make(map[string]float64)
	c.pins = make(map[string]int)
	c.flows = make(map[string]*SimFlow)
	c.nextID = 1

	// Pass 1: register every declared name and locate Net/Run. Event-block
	// declarations share the namespace (a timeline flow can be removed or
	// renewed by name like any other), but only traffic elements may be
	// declared inside a block — topology and config are static.
	register := func(d *Decl) bool {
		for _, n := range d.Names {
			if prev, dup := c.decls[n.Text]; dup {
				c.failf(n.Pos, "name %q already declared as %s at line %d", n.Text, prev.Kind, prev.Names[0].Pos.Line)
				return false
			}
			c.decls[n.Text] = d
		}
		return true
	}
	var netDecl, runDecl, rerouteDecl, cacheDecl *Decl
	for _, d := range c.file.Decls {
		cls, known := kindClass[d.Kind]
		if !known {
			c.failf(d.KindPos, "unknown element kind %q (kinds: %s)", d.Kind, joinWords(kindNames()))
			return nil
		}
		if (cls == classGenerator || cls == classChurn) && len(d.Names) != 1 {
			c.failf(d.Names[1].Pos, "%s takes exactly one name", d.Kind)
			return nil
		}
		if !register(d) {
			return nil
		}
		switch d.Kind {
		case "Net":
			if netDecl != nil {
				c.failf(d.KindPos, "duplicate Net declaration (first at line %d)", netDecl.KindPos.Line)
				return nil
			}
			netDecl = d
		case "Run":
			if runDecl != nil {
				c.failf(d.KindPos, "duplicate Run declaration (first at line %d)", runDecl.KindPos.Line)
				return nil
			}
			runDecl = d
		case "Reroute":
			if rerouteDecl != nil {
				c.failf(d.KindPos, "duplicate Reroute declaration (first at line %d)", rerouteDecl.KindPos.Line)
				return nil
			}
			rerouteDecl = d
		case "RouteCache":
			if cacheDecl != nil {
				c.failf(d.KindPos, "duplicate RouteCache declaration (first at line %d)", cacheDecl.KindPos.Line)
				return nil
			}
			cacheDecl = d
		}
	}
	for _, b := range c.file.Events {
		for _, st := range b.Stmts {
			if st.Decl == nil {
				continue
			}
			d := st.Decl
			cls, known := kindClass[d.Kind]
			if !known {
				c.failf(d.KindPos, "unknown element kind %q (kinds: %s)", d.Kind, joinWords(kindNames()))
				return nil
			}
			switch cls {
			case classFlow, classTCP, classSource, classFilter:
			default:
				c.failf(d.KindPos, "%s cannot be declared inside an at block (only flows, TCP connections, sources and TokenBucket filters arrive mid-run)", d.Kind)
				return nil
			}
			if !register(d) {
				return nil
			}
			for _, n := range d.Names {
				c.dynNames[n.Text] = true
			}
		}
	}

	// Pass 2: run knobs, then the network itself.
	c.runKnobs(runDecl)
	cfg := c.netConfig(netDecl)
	if !c.ok() {
		return nil
	}
	c.net = core.New(cfg)
	c.out = &Sim{
		File:        c.file,
		Net:         c.net,
		Seed:        c.seed,
		Horizon:     c.horizon,
		Percentiles: c.percentiles,
	}
	if c.opts.Check {
		// Attach before any flow exists so compile-time flows are watched
		// from their first packet.
		c.out.oracle = invariant.Attach(c.net, invariant.Config{BoundScale: c.opts.CheckBoundScale})
	}
	if c.traceDt > 0 {
		c.out.trace = newTraceRec(c.traceDt, c.horizon)
	}
	c.routingSetup(rerouteDecl)
	c.cacheSetup(cacheDecl)
	if !c.ok() {
		return nil
	}

	// Pass 3: topology — switch declarations and generators, in order.
	for _, d := range c.file.Decls {
		if !c.ok() {
			return nil
		}
		switch kindClass[d.Kind] {
		case classSwitch:
			for _, n := range d.Names {
				c.addSwitch(n.Text, n.Pos)
			}
			a := c.argsOf(d)
			if pin := a.count("shard", -1, -1); pin >= 0 {
				for _, n := range d.Names {
					c.pins[n.Text] = pin
				}
			}
			a.finish("shard")
		case classGenerator:
			c.generate(d)
		}
	}

	// Pass 4: explicit links (chains whose endpoints are all switches).
	var attachments []*Chain
	for _, ch := range c.file.Chains {
		if !c.ok() {
			return nil
		}
		if c.isLinkChain(ch) {
			c.linkChain(ch)
		} else {
			attachments = append(attachments, ch)
		}
	}

	// Pass 4.5: partition the network into shards — after the
	// topology is final, before any flow or connection captures a per-node
	// engine. Every TCP declaration contributes a Together constraint (a
	// connection's endpoints must share a shard); Switch(shard N) pins are
	// applied as given. Unknown path names are skipped here — the TCP pass
	// diagnoses them with a proper position.
	if shards := c.effectiveShards(); shards > 0 {
		var together [][2]string
		for _, d := range c.allDecls() {
			if kindClass[d.Kind] != classTCP {
				continue
			}
			p := c.argsOf(d).path("path", false)
			if !c.ok() {
				return nil
			}
			if len(p) >= 2 && c.switches[p[0].Text] && c.switches[p[len(p)-1].Text] {
				together = append(together, [2]string{p[0].Text, p[len(p)-1].Text})
			}
		}
		err := c.net.SetShards(core.PartitionSpec{Shards: shards, Together: together, Pins: c.pins})
		if err != nil {
			c.failf(c.shardsPos, "%v", err)
			return nil
		}
	}

	// Pass 5: flows, TCP connections, and churn processes, in declaration
	// order (ids are assigned sequentially, so reports and random streams
	// are stable).
	for _, d := range c.file.Decls {
		if !c.ok() {
			return nil
		}
		switch kindClass[d.Kind] {
		case classFlow:
			c.flowDecl(d, 0, false)
		case classTCP:
			c.tcpDecl(d, 0)
		case classChurn:
			c.churnDecl(d)
		}
	}

	// Pass 6: attachment chains (source -> [TokenBucket ->] flow).
	for _, ch := range attachments {
		if !c.ok() {
			return nil
		}
		c.attachChain(ch, 0, false)
	}

	// Pass 7: the timeline, block by block in file order. Each statement
	// becomes one engine event at the block's time, so same-timestamp
	// blocks and statements fire in file order.
	for _, b := range c.file.Events {
		if !c.ok() {
			return nil
		}
		c.eventBlock(b)
	}

	// Validator epilogue: every traffic element must be used.
	for _, d := range c.allDecls() {
		cls := kindClass[d.Kind]
		if cls != classSource && cls != classFilter {
			continue
		}
		for _, n := range d.Names {
			if c.attached[n.Text] == 0 {
				c.failf(n.Pos, "%s %q is never attached to a flow (add: %s -> someflow)", d.Kind, n.Text, n.Text)
			}
		}
	}
	if !c.ok() {
		return nil
	}
	c.out.nextID = c.nextID
	c.out.comp = c
	c.out.Shards = c.effectiveShards()
	return c.out
}

// effectiveShards resolves the shard count: the Options override wins, then
// the file's Net shards argument; 0 means unsharded (the classic engine).
func (c *compiler) effectiveShards() int {
	if c.opts.Shards > 0 {
		return c.opts.Shards
	}
	return c.shards
}

// allDecls returns every declaration — top-level and event-block — in file
// order.
func (c *compiler) allDecls() []*Decl {
	out := append([]*Decl(nil), c.file.Decls...)
	for _, b := range c.file.Events {
		for _, st := range b.Stmts {
			if st.Decl != nil {
				out = append(out, st.Decl)
			}
		}
	}
	return out
}

func (c *compiler) runKnobs(d *Decl) {
	c.seed = DefaultSeed
	c.horizon = DefaultHorizon
	c.percentiles = DefaultPercentiles
	if d != nil {
		a := c.argsOf(d)
		c.seed = int64(a.count("seed", 0, int(DefaultSeed)))
		c.horizon = a.duration("horizon", 1, DefaultHorizon)
		c.percentiles = a.fracList("percentiles", DefaultPercentiles)
		c.traceDt = a.duration("trace", -1, 0)
		a.finish("seed", "horizon", "percentiles", "trace")
		if c.horizon <= 0 {
			c.failf(d.KindPos, "horizon must be positive, got %v", c.horizon)
		}
		if c.traceDt < 0 {
			c.failf(d.KindPos, "trace interval must be positive, got %v", c.traceDt)
		}
	}
	if c.opts.SeedSet || c.opts.Seed != 0 {
		c.seed = c.opts.Seed
	}
	c.fileHorizon = c.horizon
	if c.opts.Horizon > 0 {
		c.horizon = c.opts.Horizon
	}
	if c.opts.Trace > 0 {
		c.traceDt = c.opts.Trace
	}
}

func (c *compiler) netConfig(d *Decl) core.Config {
	cfg := core.Config{Seed: c.seed}
	if d == nil {
		return cfg
	}
	a := c.argsOf(d)
	cfg.LinkRate = a.bitrate("rate", 0, 0)
	cfg.Discipline = a.enum("sched", "", sched.PipelineKinds()...)
	cfg.PredictedClasses = a.count("classes", -1, 0)
	cfg.ClassTargets = a.durList("targets", nil)
	cfg.BufferPackets = a.count("buffer", -1, 0)
	cfg.DatagramQuota = a.fraction("quota", -1, 0)
	cfg.MaxPacketBits = a.count("maxpkt", -1, 0)
	cfg.PropDelay = a.duration("propdelay", -1, 0)
	cfg.AdmissionControl = a.boolean("admission", false)
	if s, ok := sharingMode(a); ok {
		cfg.Sharing = s
	}
	c.netRouting = a.enum("routing", "", "static", "auto")
	c.shards = a.count("shards", -1, 0)
	if pos, ok := a.given("shards", -1); ok {
		c.shardsPos = pos
		if c.shards < 1 {
			c.failf(pos, "Net shards must be at least 1, got %d", c.shards)
		}
	}
	a.finish("rate", "sched", "classes", "targets", "buffer", "quota", "maxpkt", "propdelay", "admission", "sharing", "routing", "shards")
	// An explicit zero quota is expressible (no datagram reservation);
	// core.Config spells it with the NoDatagramQuota sentinel because its
	// zero value means "use the default".
	if pos, ok := a.given("quota", -1); ok {
		switch {
		case cfg.DatagramQuota < 0 || cfg.DatagramQuota >= 1:
			c.failf(pos, "Net quota must be a fraction in [0, 1), got %v", cfg.DatagramQuota)
		case cfg.DatagramQuota == 0:
			cfg.DatagramQuota = core.NoDatagramQuota
		}
	}
	// For the remaining knobs core.Config treats zero as "use the
	// default", so an explicit zero in the file would be silently
	// replaced — reject it instead.
	for _, z := range []struct {
		name   string
		posIdx int
		val    float64
	}{
		{"rate", 0, cfg.LinkRate},
		{"classes", -1, float64(cfg.PredictedClasses)},
		{"buffer", -1, float64(cfg.BufferPackets)},
		{"maxpkt", -1, float64(cfg.MaxPacketBits)},
	} {
		if pos, ok := a.given(z.name, z.posIdx); ok && z.val == 0 {
			c.failf(pos, "Net %s must be positive (omit the argument for the default)", z.name)
		}
	}
	if cfg.PredictedClasses != 0 && len(cfg.ClassTargets) != 0 &&
		len(cfg.ClassTargets) != cfg.PredictedClasses {
		c.failf(d.KindPos, "Net targets lists %d delays but classes is %d", len(cfg.ClassTargets), cfg.PredictedClasses)
	}
	if cfg.PredictedClasses == 0 && len(cfg.ClassTargets) != 0 {
		cfg.PredictedClasses = len(cfg.ClassTargets)
	}
	return cfg
}

// routingSetup configures failure-aware rerouting from the Net "routing"
// argument and the optional Reroute element. `Net(routing auto)` alone turns
// on automatic rerouting with the defaults (shortest path by hops); a
// Reroute element refines policy/cost/paths and itself implies auto unless
// it says `auto off` (an explicit Reroute auto argument also overrides the
// Net shorthand). Scenarios with neither leave routing untouched, so static
// reports stay bit-identical.
func (c *compiler) routingSetup(d *Decl) {
	rc := core.RoutingConfig{Auto: c.netRouting == "auto"}
	if d == nil && c.netRouting == "" {
		return
	}
	if d != nil {
		a := c.argsOf(d)
		rc.Policy = a.enum("policy", "", core.PolicyShortest, core.PolicySpread)
		rc.Cost = a.enum("cost", "", "hops", "delay", "load")
		rc.Paths = a.count("paths", -1, 0)
		auto := true
		if c.netRouting != "" {
			auto = c.netRouting == "auto"
		}
		rc.Auto = a.boolean("auto", auto)
		a.finish("policy", "cost", "paths", "auto")
		if !c.ok() {
			return
		}
	}
	if err := c.net.SetRouting(rc); err != nil {
		pos := Pos{}
		if d != nil {
			pos = d.KindPos
		}
		c.failf(pos, "%v", err)
		return
	}
	c.out.routingOn = true
}

// cacheSetup installs the destination-locality route cache. A RouteCache
// element declares one for the scenario — its eviction scheme, its size, and
// a cache section in the report. The Options force-cache knobs install one
// silently instead (no report section), and are ignored when the file has its
// own element: the file's declaration is part of the scenario's meaning.
// Either way the cache only accelerates — the core invalidates it on every
// routing-relevant event, so cached and uncached runs are byte-identical.
func (c *compiler) cacheSetup(d *Decl) {
	if !c.ok() {
		return
	}
	scheme, size := c.opts.ForceCacheScheme, c.opts.ForceCacheSize
	if d != nil {
		a := c.argsOf(d)
		scheme = a.enum("scheme", routing.CacheLRU, routing.CacheSchemes...)
		size = a.count("size", -1, DefaultCacheSize)
		a.finish("scheme", "size")
		if !c.ok() {
			return
		}
		if size < 1 {
			c.failf(d.KindPos, "RouteCache size must be at least 1, got %d", size)
			return
		}
		c.out.cacheOn = true
	}
	if scheme == "" {
		return
	}
	if size < 1 {
		size = DefaultCacheSize
	}
	cache, err := routing.NewCache(scheme, size, sim.DeriveRNG(c.seed, "routecache"))
	if err != nil {
		pos := Pos{}
		if d != nil {
			pos = d.KindPos
		}
		c.failf(pos, "%v", err)
		return
	}
	c.net.SetRouteCache(cache)
}

// defaultLinkRate is the rate links take when neither the link nor Net names
// one.
func (c *compiler) defaultLinkRate() float64 {
	if r := c.net.Config().LinkRate; r > 0 {
		return r
	}
	return DefaultLinkRate
}

func (c *compiler) addSwitch(name string, pos Pos) {
	if c.switches[name] {
		c.failf(pos, "switch %q already exists", name)
		return
	}
	c.switches[name] = true
	c.net.AddSwitch(name)
}

func (c *compiler) addLink(from, to string, rate, delay float64, prof *sched.Profile, pos Pos) {
	key := [2]string{from, to}
	if c.links[key] {
		c.failf(pos, "duplicate link %s -> %s", from, to)
		return
	}
	c.links[key] = true
	if _, err := c.net.ConnectWith(from, to, rate, delay, prof); err != nil {
		c.failf(pos, "%v", err)
	}
}

// isLinkChain reports whether every endpoint of the chain is a switch
// (unknown names are resolved — with an error — in linkChain/attachChain).
func (c *compiler) isLinkChain(ch *Chain) bool {
	return c.switches[ch.Ends[0].Text]
}

func (c *compiler) linkChain(ch *Chain) {
	rate := c.defaultLinkRate()
	delay := c.net.Config().PropDelay
	var prof *sched.Profile
	if len(ch.Attrs) > 0 {
		a := c.argsOf(&Decl{Kind: "Link", KindPos: ch.Ends[0].Pos, Args: ch.Attrs})
		rate = a.bitrate("rate", 0, rate)
		delay = a.duration("delay", 1, delay)
		patch := c.linkProfile(a)
		a.finish(linkArgNames...)
		if patch.any() {
			p := patch.apply(c.net.DefaultProfile())
			prof = &p
		}
	}
	for i := 0; i < len(ch.Ends)-1; i++ {
		from, to := ch.Ends[i], ch.Ends[i+1]
		for _, n := range []Name{from, to} {
			if !c.switches[n.Text] {
				c.what(n, "a switch", "in a link")
				return
			}
		}
		if !c.ok() {
			return
		}
		c.addLink(from.Text, to.Text, rate, delay, prof, from.Pos)
		if ch.Duplex[i] {
			c.addLink(to.Text, from.Text, rate, delay, prof, from.Pos)
		}
	}
}

// elementAvailable checks that an element referenced by a chain already
// exists at the chain's time: event-declared elements come into existence at
// their block's time, so a static chain may not use them at all and an event
// chain may not use them earlier.
func (c *compiler) elementAvailable(n Name, kind string, at float64, dynamic bool) bool {
	if !c.dynNames[n.Text] {
		return true
	}
	if !dynamic {
		c.failf(n.Pos, "%s %q arrives inside an at block; attach it inside that at block", kind, n.Text)
		return false
	}
	t, ok := c.declAt[n.Text]
	if !ok {
		c.failf(n.Pos, "%s %q is declared in a later at block; statements compile in file order, so move that block earlier", kind, n.Text)
		return false
	}
	if t > at {
		c.failf(n.Pos, "%s %q does not arrive until %vs (this event is at %vs)", kind, n.Text, t, at)
		return false
	}
	return true
}

// what reports a name that is not what the context needs, saying what it
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
			return nil
		}
		nodes[i] = n.Text
	}
	for i := 0; i < len(nodes)-1; i++ {
		if !c.links[[2]string{nodes[i], nodes[i+1]}] {
			c.failf(path[i].Pos, "path needs a link %s -> %s, but none is declared", nodes[i], nodes[i+1])
			return nil
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
	path := a.path("path", true)
	var nodes []string
	if c.ok() {
		nodes = c.pathNodes(path)
	}
	var reqs []*flowReq
	var sfs []*SimFlow
	for _, n := range d.Names {
		if !c.ok() {
			return
		}
		req := &flowReq{kind: d.Kind, id: c.allocID(), nodes: nodes, class: -1}
		switch d.Kind {
		case "Guaranteed":
			req.g = core.GuaranteedSpec{
				ClockRate:  a.bitrate("rate", -1, 0),
				BucketBits: a.bits("bucket", -1, DefaultBucketPkt*DefaultPktBits),
			}
			a.finish("path", "rate", "bucket")
		case "Predicted":
			req.p = core.PredictedSpec{
				TokenRate:  a.bitrate("rate", -1, 0),
				BucketBits: a.bits("bucket", -1, DefaultBucketPkt*DefaultPktBits),
				Delay:      a.duration("delay", -1, 0.5),
				Loss:       a.fraction("loss", -1, 0.01),
			}
			req.class = a.count("class", -1, -1)
			a.finish("path", "rate", "bucket", "delay", "loss", "class")
		case "Datagram":
			a.finish("path")
		}
		if !c.ok() {
			return
		}
		sf := &SimFlow{Name: n.Text, Kind: d.Kind, At: at, dynamic: dynamic}
		c.flows[n.Text] = sf
		c.out.Flows = append(c.out.Flows, sf)
		sfs = append(sfs, sf)
		reqs = append(reqs, req)
	}
	if dynamic {
		c.out.events = append(c.out.events, simEvent{at: at, fn: func(s *Sim) {
			for i, sf := range sfs {
				s.requestFlow(sf, reqs[i])
			}
		}})
		return
	}
	for i, sf := range sfs {
		f, err := reqs[i].issue(c.net)
		if err != nil {
			c.failf(d.KindPos, "%s %q rejected: %v", d.Kind, sf.Name, err)
			return
		}
		sf.Flow = f
		c.out.tapFlow(f)
	}
}

// tcpDecl compiles a TCP declaration; at > 0 (an at-block arrival) floors
// the connection's start time at the event time.
func (c *compiler) tcpDecl(d *Decl, at float64) {
	a := c.argsOf(d)
	fwd := a.path("path", true)
	var nodes []string
	if c.ok() {
		nodes = c.pathNodes(fwd)
	}
	var back []string
	if rev := a.path("back", false); rev != nil {
		back = c.pathNodes(rev)
		// ACKs must return from the receiver to the sender, whatever
		// route they take.
		if back != nil && nodes != nil &&
			(back[0] != nodes[len(nodes)-1] || back[len(back)-1] != nodes[0]) {
			c.failf(rev[0].Pos, "back path must run from %s to %s (got %s to %s)",
				nodes[len(nodes)-1], nodes[0], back[0], back[len(back)-1])
			return
		}
	} else if nodes != nil {
		back = make([]string, len(nodes))
		for i, s := range nodes {
			back[len(nodes)-1-i] = s
		}
		for i := 0; i < len(back)-1; i++ {
			if !c.links[[2]string{back[i], back[i+1]}] {
				c.failf(d.KindPos, "TCP ACKs need a reverse link %s -> %s; declare it (or the whole path with <->), or give an explicit back path",
					back[i], back[i+1])
				return
			}
		}
	}
	cfg := tcp.Config{
		SegmentBits: int(a.bits("segment", -1, 0)),
		AckBits:     int(a.bits("ack", -1, 0)),
		MaxCwnd:     float64(a.count("maxcwnd", -1, 0)),
		MinRTO:      a.duration("minrto", -1, 0),
	}
	startAt := a.duration("start", -1, 0)
	if startAt < at {
		startAt = at
	}
	a.finish("path", "back", "segment", "ack", "maxcwnd", "minrto", "start")
	for _, n := range d.Names {
		if !c.ok() {
			return
		}
		cc := cfg
		cc.DataFlowID = c.allocID()
		cc.AckFlowID = c.allocID()
		cc.Path = nodes
		cc.ReversePath = back
		conn := tcp.NewConnection(c.net.Topology(), cc)
		st := &SimTCP{Name: n.Text, Conn: conn, StartAt: startAt}
		c.out.TCPs = append(c.out.TCPs, st)
		// The connection's whole state machine runs on the data-ingress
		// node's engine; its start must be scheduled there too.
		eng := c.net.Topology().Node(nodes[0]).Engine()
		if startAt > 0 {
			//ispnvet:allow keyedevents: start events are registered in fixed compile order before the run begins, so the insertion-sequence tiebreak is identical in sequential and sharded modes
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
			return
		}
	}
	if len(ch.Attrs) > 0 {
		c.failf(ch.Ends[0].Pos, "Link(...) attributes only apply to links between switches")
		return
	}
	head := ch.Ends[0]
	srcDecl, ok := c.decls[head.Text]
	if !ok || kindClass[srcDecl.Kind] != classSource {
		c.what(head, "a traffic source or switch", "at the head of a chain")
		return
	}
	if !c.elementAvailable(head, srcDecl.Kind, at, dynamic) {
		return
	}
	last := ch.Ends[len(ch.Ends)-1]
	flow, ok := c.flows[last.Text]
	if !ok {
		// A declared flow missing from c.flows is an at-block arrival
		// that has not been compiled yet (timeline blocks compile after
		// static chains, in file order).
		if d, isDecl := c.decls[last.Text]; isDecl && kindClass[d.Kind] == classFlow {
			if dynamic {
				c.failf(last.Pos, "flow %q is declared in a later at block; statements compile in file order, so move that block earlier", last.Text)
			} else {
				c.failf(last.Pos, "flow %q arrives inside an at block; attach its traffic inside that at block", last.Text)
			}
			return
		}
		c.what(last, "a Guaranteed/Predicted/Datagram flow", "at the end of an attachment")
		return
	}
	if dynamic && flow.dynamic && flow.At > at {
		c.failf(last.Pos, "flow %q does not arrive until %vs (this event is at %vs)", last.Text, flow.At, at)
		return
	}
	// Middle elements must be TokenBucket filters, each used once.
	src := c.buildSource(srcDecl, head, flow)
	if !c.ok() {
		return
	}
	for _, mid := range ch.Ends[1 : len(ch.Ends)-1] {
		fd, ok := c.decls[mid.Text]
		if !ok || kindClass[fd.Kind] != classFilter {
			c.what(mid, "a TokenBucket", "in the middle of an attachment")
			return
		}
		if !c.elementAvailable(mid, fd.Kind, at, dynamic) {
			return
		}
		if c.attached[mid.Text] > 0 {
			c.failf(mid.Pos, "TokenBucket %q is already in use; buckets hold state and serve one chain", mid.Text)
			return
		}
		c.attached[mid.Text]++
		a := c.argsOf(fd)
		rate := a.pktRate("rate", 0, 0)
		depth := float64(a.count("depth", 1, DefaultBucketPkt))
		a.finish("rate", "depth")
		if rate <= 0 {
			c.failf(fd.KindPos, "TokenBucket requires a positive rate (packets/s)")
			return
		}
		pol := source.NewPoliced(src, rate, depth)
		flow.filters = append(flow.filters, pol)
		src = pol
	}
	c.attached[head.Text]++
	if c.attached[head.Text] > 1 {
		c.failf(head.Pos, "source %q is already attached; a source feeds one flow", head.Text)
		return
	}
	c.startSource(src, srcDecl, flow, at, dynamic)
}

// buildSource constructs the generator for one attachment. Class and
// priority are stamped by Flow.Inject, so the source only needs rates and
// sizes.
func (c *compiler) buildSource(d *Decl, n Name, flow *SimFlow) source.Source {
	a := c.argsOf(d)
	rng := sim.DeriveRNG(c.seed, "src:"+n.Text)
	size := int(a.bits("size", -1, DefaultPktBits))
	if size <= 0 {
		c.failf(d.KindPos, "%s requires a positive packet size, got %d bits", d.Kind, size)
		return nil
	}
	var src source.Source
	switch d.Kind {
	case "Markov":
		peak := a.pktRate("peak", -1, 0)
		avg := a.pktRate("avg", -1, 0)
		burst := float64(a.count("burst", -1, 5))
		a.finish("peak", "avg", "burst", "size", "start")
		if !c.ok() {
			return nil
		}
		if avg <= 0 || peak <= avg {
			c.failf(d.KindPos, "Markov needs 0 < avg < peak (got avg %v, peak %v)", avg, peak)
			return nil
		}
		src = source.NewMarkov(source.MarkovConfig{
			SizeBits: size, PeakRate: peak, AvgRate: avg, Burst: burst, RNG: rng,
		})
	case "CBR":
		rate := a.pktRate("rate", 0, 0)
		a.finish("rate", "size", "start")
		if !c.ok() {
			return nil
		}
		if rate <= 0 {
			c.failf(d.KindPos, "CBR requires a positive rate (packets/s)")
			return nil
		}
		src = source.NewCBR(source.CBRConfig{SizeBits: size, Rate: rate, RNG: rng})
	case "Poisson":
		rate := a.pktRate("rate", 0, 0)
		a.finish("rate", "size", "start")
		if !c.ok() {
			return nil
		}
		if rate <= 0 {
			c.failf(d.KindPos, "Poisson requires a positive rate (packets/s)")
			return nil
		}
		src = source.NewPoisson(source.PoissonConfig{SizeBits: size, Rate: rate, RNG: rng})
	}
	return src
}

// startSource defers the actual Start into Sim.Run — for a static chain via
// the start list, for a timeline chain via an event that fires only if the
// flow was admitted (and not yet removed).
func (c *compiler) startSource(src source.Source, d *Decl, flow *SimFlow, at float64, dynamic bool) {
	a := c.argsOf(d)
	startAt := a.duration("start", -1, 0)
	flow.sources = append(flow.sources, src)
	if dynamic {
		// The flow (and so its ingress engine and pool) exists only if
		// admission said yes at event time.
		c.out.events = append(c.out.events, simEvent{at: at, fn: func(s *Sim) {
			if flow.Flow == nil || flow.removed {
				return
			}
			f := flow.Flow
			source.AttachPool(src, f.IngressPool())
			eng := f.IngressEngine()
			begin := func() {
				if s.draining {
					return
				}
				src.Start(eng, func(p *packet.Packet) { f.Inject(p) })
			}
			if startAt > at {
				//ispnvet:allow keyedevents: scheduled from inside an already-keyed at-block, which fires at the same point in sequential and sharded runs, so the insertion-sequence tiebreak matches
				eng.At(startAt, begin)
			} else {
				begin()
			}
		}})
		return
	}
	f := flow.Flow
	source.AttachPool(src, f.IngressPool())
	eng := f.IngressEngine()
	out := c.out
	begin := func() {
		if out.draining {
			return
		}
		src.Start(eng, func(p *packet.Packet) { f.Inject(p) })
	}
	if startAt > 0 {
		//ispnvet:allow keyedevents: start events are registered in fixed compile order before the run begins, so the insertion-sequence tiebreak is identical in sequential and sharded modes
		c.out.starts = append(c.out.starts, func() { eng.At(startAt, begin) })
	} else {
		c.out.starts = append(c.out.starts, begin)
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
