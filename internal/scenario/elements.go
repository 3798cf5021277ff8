package scenario

import "sort"

// elemClass buckets the rows of the element table: it picks the compile pass
// that lowers a declaration, what a chain may use the element as, and
// whether it may arrive inside an at block.
type elemClass int

const (
	classConfig    elemClass = iota // Net, Run, Reroute, RouteCache: at most one of each
	classSwitch                     // Switch
	classGenerator                  // Star, Dumbbell, ParkingLot, Random: one name each
	classFlow                       // Guaranteed, Predicted, Datagram
	classTCP                        // TCP
	classSource                     // Markov, CBR, Poisson
	classFilter                     // TokenBucket
	classChurn                      // Churn: a flow-arrival process, one name
	// The argument lists no declaration carries: a link chain's
	// ":: Link(...)", the same suffix inside an at block, and renew's.
	classLink
	classLinkEvent
	classRenew
)

// element is one row of the element table: a kind, its class, and the
// arguments it accepts, in documentation order.
type element struct {
	kind  string
	class elemClass
	args  []string
}

// elements is the one place a kind, its class and its accepted arguments are
// written, after Click's per-element keyword lists. Name resolution, the
// argument check (argSet.finish) and docs/SCENARIO.md's tables
// (TestScenarioDocArgTables) all read it. An argument a row does not list is
// invisible to its lowering function.
var elements = []element{
	// Net's profile arguments (classes, targets, quota) set the default
	// Link(...); Net alone declares a class count.
	{"Net", classConfig, []string{"rate", "buffer", "propdelay", "admission", "routing", "shards", "classes", "targets", "quota"}},
	{"Run", classConfig, []string{"seed", "horizon", "percentiles", "trace"}},
	{"Reroute", classConfig, []string{"cost"}},
	{"RouteCache", classConfig, []string{"scheme", "size"}},
	{"Switch", classSwitch, nil},
	{"Star", classGenerator, []string{"leaves", "rate", "delay"}},
	{"Dumbbell", classGenerator, []string{"left", "right", "access", "bottleneck", "delay"}},
	{"ParkingLot", classGenerator, []string{"hops", "rate", "delay"}},
	{"Random", classGenerator, []string{"nodes", "degree", "rate", "delay"}},
	{"Guaranteed", classFlow, []string{"path", "rate", "bucket"}},
	{"Predicted", classFlow, []string{"path", "rate", "bucket", "delay", "loss", "class"}},
	{"Datagram", classFlow, []string{"path"}},
	{"TCP", classTCP, []string{"path", "start"}},
	{"Markov", classSource, []string{"peak", "avg", "burst", "size", "start"}},
	{"CBR", classSource, []string{"rate", "size"}},
	{"Poisson", classSource, []string{"rate", "size", "start"}},
	{"TokenBucket", classFilter, []string{"rate", "depth"}},
	{"Churn", classChurn, []string{"every", "hold", "service", "rate", "bucket", "delay",
		"pps", "size", "src", "paths", "from", "to", "locality"}},
	{"Link", classLink, []string{"rate", "delay", "sched", "sharing", "targets", "quota"}},
	// A link event changes rate or profile; its delay is fixed at compile.
	{"Link", classLinkEvent, []string{"rate", "sched", "sharing", "targets", "quota"}},
	{"renew", classRenew, []string{"rate"}},
}

// declared returns the row of a kind a declaration may name, or nil.
func declared(kind string) *element {
	for i := range elements {
		if e := &elements[i]; e.kind == kind && e.class < classLink {
			return e
		}
	}
	return nil
}

// row returns d's row of the element table, or nil for an unknown kind: the
// row the parser resolved, or a lookup for a declaration built or edited by
// hand.
func (d *Decl) row() *element {
	if e := d.elem; e != nil && e.kind == d.Kind {
		return e
	}
	return declared(d.Kind)
}

// rowOf returns the row of a class with one row: classLink, classLinkEvent
// or classRenew.
func rowOf(class elemClass) *element {
	for i := range elements {
		if elements[i].class == class {
			return &elements[i]
		}
	}
	return nil
}

// elementOf returns the row of d's kind; an unknown kind fails at its
// position.
func (c *compiler) elementOf(d *Decl) *element {
	e := d.row()
	if e == nil {
		var kinds []string
		for _, e := range elements {
			if e.class < classLink {
				kinds = append(kinds, e.kind)
			}
		}
		sort.Strings(kinds)
		c.failf(d.KindPos, "unknown element kind %q (kinds: %s)", d.Kind, joinWords(kinds))
	}
	return e
}

// class returns the class of a declaration pass 1 has resolved.
func (d *Decl) class() elemClass { return d.row().class }

// argsOf gives typed access to a resolved declaration's arguments.
func (c *compiler) argsOf(d *Decl) *argSet {
	return &argSet{c: c, args: d.Args, kind: d.Kind, kindPos: d.KindPos, elem: d.row()}
}

// attrsOf gives typed access to the arguments of a link chain's suffix
// (classLink, classLinkEvent) or of a renew (classRenew), reported at pos.
func (c *compiler) attrsOf(class elemClass, pos Pos, args []Arg) *argSet {
	e := rowOf(class)
	return &argSet{c: c, args: args, kind: e.kind, kindPos: pos, elem: e}
}
