package scenario

import (
	"ispn/internal/core"
	"ispn/internal/routing"
	"ispn/internal/sched"
	"ispn/internal/sim"
)

func (c *compiler) runKnobs(d *Decl) {
	c.seed = DefaultSeed
	c.horizon = DefaultHorizon
	c.percentiles = DefaultPercentiles
	if d != nil {
		a := c.argsOf(d)
		c.seed = int64(a.count("seed", int(DefaultSeed)))
		c.horizon = a.duration("horizon", DefaultHorizon)
		c.percentiles = a.fracList("percentiles", DefaultPercentiles)
		c.traceDt = a.duration("trace", 0)
		a.finish()
		if c.horizon <= 0 {
			c.failf(d.KindPos, "horizon must be positive, got %v", c.horizon)
		}
		if c.traceDt < 0 {
			c.failf(d.KindPos, "trace interval must be positive, got %v", c.traceDt)
		}
	}
	if c.opts.Seed != nil {
		c.seed = *c.opts.Seed
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
	cfg.LinkRate = a.bitrate("rate", 0)
	cfg.BufferPackets = a.count("buffer", 0)
	cfg.PropDelay = a.duration("propdelay", 0)
	cfg.AdmissionControl = a.boolean("admission", false)
	c.netRouting = a.enum("routing", "", "static", "auto")
	// shards is checked and ignored: every run is on the network's one
	// engine. bench/gen.go:124 writes it; it goes with bench/'s rewrite
	// (ROADMAP item 7).
	if pos, ok := a.given("shards"); ok {
		if n := a.count("shards", 0); n < 1 {
			c.failf(pos, "Net shards must be at least 1, got %d", n)
		}
	}
	p := c.linkProfile(a)
	cfg.Profile = p.apply(sched.Profile{})
	// classes declares the network's class count: it is checked against the
	// targets list, or the default one, and never generates targets.
	if pos, ok := a.given("classes"); ok {
		classes := a.count("classes", 0)
		targetsPos, targetsGiven := a.given("targets")
		if targetsGiven && classes != len(p.targets) {
			c.failf(targetsPos, "targets lists %d delays but classes is %d", len(p.targets), classes)
		} else if classes != cfg.Profile.Classes() {
			c.failf(pos, "classes needs a matching targets list: classes is %d, the profile has %d targets", classes, cfg.Profile.Classes())
		}
	}
	a.finish()
	// core.Config treats a zero as "use the default", so an explicit zero
	// in the file would be silently replaced — reject it instead.
	for _, z := range []struct {
		name string
		val  float64
	}{
		{"rate", cfg.LinkRate},
		{"buffer", float64(cfg.BufferPackets)},
	} {
		if pos, ok := a.given(z.name); ok && z.val == 0 {
			c.failf(pos, "Net %s must be positive (omit the argument for the default)", z.name)
		}
	}
	return cfg
}

// setupRouting configures failure-aware rerouting from the Net "routing"
// argument and the optional Reroute element. `Net(routing auto)` alone turns
// on automatic rerouting with the default cost (shortest path by hops); a
// Reroute element names the cost and itself implies auto unless the file
// says `Net(routing static)`, which leaves only the reroute verb. Scenarios
// with neither leave routing untouched, so static reports stay bit-identical.
func (c *compiler) setupRouting(d *Decl) {
	if d == nil && c.netRouting == "" {
		return
	}
	rc := core.RoutingConfig{Auto: c.netRouting != "static"}
	if d != nil {
		a := c.argsOf(d)
		rc.Cost = a.enum("cost", "", routing.CostNameHops, routing.CostNameDelay)
		a.finish()
	}
	if err := c.net.SetRouting(rc); err != nil {
		pos := Pos{}
		if d != nil {
			pos = d.KindPos
		}
		c.failf(pos, "%v", err)
	}
	c.out.routingOn = true
}

// setupCache installs the destination-locality route cache a RouteCache
// element declares: its eviction scheme, its size, and a cache section in the
// report. The cache only accelerates — the core invalidates it on every
// routing-relevant event, so cached and uncached runs are byte-identical.
func (c *compiler) setupCache(d *Decl) {
	if d == nil {
		return
	}
	a := c.argsOf(d)
	scheme := a.enum("scheme", routing.CacheLRU, routing.CacheSchemes...)
	size := a.count("size", DefaultCacheSize)
	a.finish()
	if size < 1 {
		c.failf(d.KindPos, "RouteCache size must be at least 1, got %d", size)
	}
	cache, err := routing.NewCache(scheme, size, sim.DeriveRNG(c.seed, "routecache"))
	if err != nil {
		c.failf(d.KindPos, "%v", err)
	}
	c.net.SetRouteCache(cache)
}

func (c *compiler) addSwitch(name string, pos Pos) {
	if c.switches[name] {
		c.failf(pos, "switch %q already exists", name)
	}
	c.switches[name] = true
	c.net.AddSwitch(name)
}

func (c *compiler) addLink(from, to string, rate, delay float64, prof *sched.Profile, pos Pos) {
	if c.hasLink(from, to) {
		c.failf(pos, "duplicate link %s -> %s", from, to)
	}
	if _, err := c.net.ConnectWith(from, to, rate, delay, prof); err != nil {
		c.failf(pos, "%v", err)
	}
}

// hasLink reports whether a link from -> to is declared: the network's
// topology holds every link the compiler added, and nothing else.
func (c *compiler) hasLink(from, to string) bool {
	nd := c.net.Topology().Node(from)
	return nd != nil && nd.Port(to) != nil
}

// isLinkChain reports whether every endpoint of the chain is a switch
// (unknown names are resolved — with an error — in linkChain/attachChain).
func (c *compiler) isLinkChain(ch *Chain) bool {
	return c.switches[ch.Ends[0].Text]
}

func (c *compiler) linkChain(ch *Chain) {
	cfg := c.net.Config()
	rate, delay := cfg.LinkRate, cfg.PropDelay
	var prof *sched.Profile
	if len(ch.Attrs) > 0 {
		a := c.attrsOf(classLink, ch.Ends[0].Pos, ch.Attrs)
		rate = a.bitrate("rate", rate)
		delay = a.duration("delay", delay)
		p := c.linkProfile(a).apply(cfg.Profile)
		a.finish()
		prof = &p
	}
	for i := 0; i < len(ch.Ends)-1; i++ {
		from, to := ch.Ends[i], ch.Ends[i+1]
		for _, n := range []Name{from, to} {
			if !c.switches[n.Text] {
				c.what(n, "a switch", "in a link")
			}
		}
		c.addLink(from.Text, to.Text, rate, delay, prof, from.Pos)
		if ch.Duplex[i] {
			c.addLink(to.Text, from.Text, rate, delay, prof, from.Pos)
		}
	}
}
