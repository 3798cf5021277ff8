package scenario

import (
	"fmt"
	"strings"
	"testing"
)

// rowWorlds gives every row of the element table a minimal world: the
// scenario text around the element, with %s where its arguments go, and the
// arguments that make the world valid as written.
var rowWorlds = map[string]struct{ world, args string }{
	"Net":         {"n :: Net(%s)\n" + twoSwitches + cbrFlow, ""},
	"Run":         {"r :: Run(%s)\n" + twoSwitches + cbrFlow, ""},
	"Reroute":     {"x :: Reroute(%s)\n" + twoSwitches + cbrFlow, ""},
	"RouteCache":  {"x :: RouteCache(%s)\n" + twoSwitches + cbrFlow, ""},
	"Switch":      {"A, B :: Switch(%s)\nA -> B\n" + cbrFlow, ""},
	"Star":        {"x :: Star(%s)\nd :: Datagram(path x.leaf1 -> x.hub)\n" + cbrSource, ""},
	"Dumbbell":    {"x :: Dumbbell(%s)\nd :: Datagram(path x.l1 -> x.a -> x.b -> x.r1)\n" + cbrSource, ""},
	"ParkingLot":  {"x :: ParkingLot(%s)\nd :: Datagram(path x.s1 -> x.s2)\n" + cbrSource, ""},
	"Random":      {"x :: Random(%s)\nd :: Datagram(path x.n1 -> x.n2)\n" + cbrSource, ""},
	"Guaranteed":  {twoSwitches + "d :: Guaranteed(%s)\n" + cbrSource, "path A -> B, rate 100kbps"},
	"Predicted":   {twoSwitches + "d :: Predicted(%s)\n" + cbrSource, "path A -> B, rate 100kbps"},
	"Datagram":    {twoSwitches + "d :: Datagram(%s)\n" + cbrSource, "path A -> B"},
	"TCP":         {"A, B :: Switch\nA <-> B\nx :: TCP(%s)\n", "path A -> B"},
	"Markov":      {twoSwitches + "d :: Datagram(path A -> B)\ns :: Markov(%s)\ns -> d\n", "peak 20pps, avg 10pps"},
	"CBR":         {twoSwitches + "d :: Datagram(path A -> B)\ns :: CBR(%s)\ns -> d\n", "rate 10pps"},
	"Poisson":     {twoSwitches + "d :: Datagram(path A -> B)\ns :: Poisson(%s)\ns -> d\n", "rate 10pps"},
	"TokenBucket": {twoSwitches + "d :: Datagram(path A -> B)\ns :: CBR(rate 10pps)\nx :: TokenBucket(%s)\ns -> x -> d\n", "rate 10pps"},
	"Churn":       {twoSwitches + "x :: Churn(%s)\n", "every 100ms, hold 200ms, rate 10kbps, pps 10pps, from A, to [B]"},
	"Link":        {"A, B :: Switch\nA -> B :: Link(%s)\n" + cbrFlow, "rate 1Mbps"},
	"Link event":  {twoSwitches + cbrFlow + "at 0.5s { A -> B :: Link(%s) }\n", "rate 2Mbps"},
	"renew":       {twoSwitches + "d :: Guaranteed(rate 100kbps, path A -> B)\n" + cbrSource + "at 0.5s { renew d (%s) }\n", "rate 200kbps"},
}

const (
	twoSwitches = "A, B :: Switch\nA -> B\n"
	cbrSource   = "s :: CBR(rate 10pps)\ns -> d\n"
	cbrFlow     = "d :: Datagram(path A -> B)\n" + cbrSource
)

// rowName names a row the way rowWorlds does: its kind, except the in-block
// Link.
func rowName(e element) string {
	if e.class == classLinkEvent {
		return "Link event"
	}
	return e.kind
}

// withArg returns args with name set to value, replacing a given value.
func withArg(args, name, value string) string {
	var out []string
	if args != "" {
		for _, a := range strings.Split(args, ", ") {
			if strings.Fields(a)[0] != name {
				out = append(out, a)
			}
		}
	}
	return strings.Join(append(out, name+" "+value), ", ")
}

// TestElementArgumentsNeverPanic sets every argument of every row, one at a
// time, to 0, to a tiny positive number and to a large one, in that row's
// minimal world, and runs each world for 1 s. A value the element cannot
// take must be a positioned diagnostic; nothing may panic. Arguments that
// are not numbers take the bare number too, which must be a diagnostic.
func TestElementArgumentsNeverPanic(t *testing.T) {
	run := func(src string) (panicked any, err error) {
		defer func() { panicked = recover() }()
		f, err := Parse("row.ispn", []byte(src))
		if err != nil {
			return nil, err
		}
		s, err := Compile(f, Options{Horizon: 1})
		if err != nil {
			return nil, err
		}
		s.Run()
		return nil, nil
	}
	for _, e := range elements {
		w, ok := rowWorlds[rowName(e)]
		if !ok {
			t.Errorf("%s has no minimal world in rowWorlds", rowName(e))
			continue
		}
		// The world as written must run, or the cases below prove nothing.
		if p, err := run(fmt.Sprintf(w.world, w.args)); err != nil || p != nil {
			t.Errorf("%s's minimal world fails: %v %v", rowName(e), err, p)
			continue
		}
		for _, name := range e.args {
			for _, v := range []string{"0", "0.001", "10000"} {
				args := withArg(w.args, name, v)
				p, err := run(fmt.Sprintf(w.world, args))
				switch {
				case p != nil:
					t.Errorf("%s(%s) panicked: %v", rowName(e), args, p)
				case err != nil && !strings.HasPrefix(err.Error(), "row.ispn:"):
					t.Errorf("%s(%s): diagnostic %q has no position", rowName(e), args, err)
				}
			}
		}
	}
}

// TestEditedDeclarationUsesItsKind: the parser resolves a declaration's row
// once, but a Kind edited after the parse is what the compiler goes by.
func TestEditedDeclarationUsesItsKind(t *testing.T) {
	f := mustParse(t, "s :: Switch")
	f.Decls[0].Kind = "Widget"
	if _, err := Compile(f, Options{}); err == nil || !strings.Contains(err.Error(), `unknown element kind "Widget"`) {
		t.Errorf("compile of an edited kind = %v, want the unknown-kind error", err)
	}
}
