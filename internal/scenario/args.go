package scenario

import (
	"math"
	"slices"
)

// argSet gives the compiler typed, dimension-checked access to a
// declaration's arguments, which are always named, under its row of the
// element table. A getter returns the caller's default for an argument the
// file leaves out; a malformed one ends the compile at the argument's
// position (compiler.failf), so a getter that returns has a valid value.
type argSet struct {
	c    *compiler
	decl *Decl
	elem *element
}

// lookup finds a named argument the row accepts; finish reports the rest.
func (a *argSet) lookup(name string) (Value, bool) {
	for _, arg := range a.decl.Args {
		if arg.Name == name && slices.Contains(a.elem.args, name) {
			return arg.Value, true
		}
	}
	return Value{}, false
}

// finish rejects arguments the row does not accept, and duplicates.
func (a *argSet) finish() {
	for i, arg := range a.decl.Args {
		if !slices.Contains(a.elem.args, arg.Name) {
			accepted := joinWords(a.elem.args)
			if accepted == "" {
				accepted = "none"
			}
			a.c.failf(arg.NamePos, "%s has no argument %q (accepted: %s)",
				a.decl.Kind, arg.Name, accepted)
		}
		for _, prev := range a.decl.Args[:i] {
			if prev.Name == arg.Name {
				a.c.failf(arg.NamePos, "argument %q given twice", arg.Name)
			}
		}
	}
}

func joinWords(ws []string) string {
	out := ""
	for i, w := range ws {
		if i > 0 {
			out += ", "
		}
		out += w
	}
	return out
}

// given reports whether the argument was written in the file and where,
// without consuming it.
func (a *argSet) given(name string) (Pos, bool) {
	v, ok := a.lookup(name)
	return v.Pos, ok
}

// number converts a NumberVal to the wanted dimension. Bare numbers are
// accepted for every dimension (interpreted in its base unit: bits/s, bits,
// seconds, packets/s, or a plain fraction).
func (c *compiler) number(v Value, want dimension, name string) float64 {
	if v.Kind != NumberVal {
		c.failf(v.Pos, "argument %q must be %s", name, want)
	}
	if v.Unit == "" {
		return v.Num
	}
	u := units[v.Unit]
	if u.dim != want && !(want == dimFraction && v.Unit == "%") {
		c.failf(v.Pos, "argument %q must be %s, got %q", name, want, v.Unit)
	}
	return v.Num * u.mult
}

func (a *argSet) dimensioned(name string, want dimension, def float64) float64 {
	v, ok := a.lookup(name)
	if !ok {
		return def
	}
	return a.c.number(v, want, name)
}

func (a *argSet) bitrate(name string, def float64) float64 {
	return a.dimensioned(name, dimBitrate, def)
}

func (a *argSet) bits(name string, def float64) float64 {
	return a.dimensioned(name, dimBits, def)
}

func (a *argSet) duration(name string, def float64) float64 {
	return a.dimensioned(name, dimTime, def)
}

func (a *argSet) pktRate(name string, def float64) float64 {
	return a.dimensioned(name, dimPktRate, def)
}

func (a *argSet) fraction(name string, def float64) float64 {
	return a.dimensioned(name, dimFraction, def)
}

// plain returns a unitless numeric argument (Churn's Zipf locality and
// similar bare coefficients).
func (a *argSet) plain(name string, def float64) float64 {
	return a.dimensioned(name, dimNone, def)
}

func (a *argSet) count(name string, def int) int {
	v, ok := a.lookup(name)
	if !ok {
		return def
	}
	n := a.c.number(v, dimNone, name)
	if n != math.Trunc(n) || n < 0 {
		a.c.failf(v.Pos, "argument %q must be a non-negative integer, got %v", name, n)
	}
	return int(n)
}

func (a *argSet) boolean(name string, def bool) bool {
	v, ok := a.lookup(name)
	if !ok {
		return def
	}
	if v.Kind == IdentVal {
		switch v.Str {
		case "on", "true", "yes":
			return true
		case "off", "false", "no":
			return false
		}
	}
	a.c.failf(v.Pos, "argument %q must be on/off", name)
	return false
}

func (a *argSet) enum(name string, def string, allowed ...string) string {
	v, ok := a.lookup(name)
	if !ok {
		return def
	}
	if v.Kind != IdentVal || !slices.Contains(allowed, v.Str) {
		a.c.failf(v.Pos, "argument %q must be one of: %s", name, joinWords(allowed))
	}
	return v.Str
}

// path returns a route argument as node names. Required paths that are
// missing are reported at the declaration's kind position.
func (a *argSet) path(name string, required bool) []Name {
	v, ok := a.lookup(name)
	if !ok {
		if required {
			a.c.failf(a.decl.KindPos, "%s requires a %q argument (e.g. %s A -> B)",
				a.decl.Kind, name, name)
		}
		return nil
	}
	switch v.Kind {
	case PathVal:
	case IdentVal:
		// A single-switch "path" is meaningless (flows need ≥ 1 link).
		a.c.failf(v.Pos, "argument %q needs at least two switches (A -> B)", name)
	default:
		a.c.failf(v.Pos, "argument %q must be a path (A -> B -> C)", name)
	}
	return v.Path
}

// identName returns a bare-identifier argument as a Name (used for churn
// destination endpoints, where a single switch — not a path — is meant).
func (a *argSet) identName(name string) (Name, bool) {
	v, ok := a.lookup(name)
	if !ok {
		return Name{}, false
	}
	if v.Kind != IdentVal {
		a.c.failf(v.Pos, "argument %q must be a single switch name", name)
	}
	return Name{Text: v.Str, Pos: v.Pos}, true
}

// nameList returns a list argument of bare identifiers (used for churn
// destination pools).
func (a *argSet) nameList(name string) []Name {
	v, ok := a.lookup(name)
	if !ok {
		return nil
	}
	if v.Kind != ListVal {
		a.c.failf(v.Pos, "argument %q must be a list of switch names like [B1, B2]", name)
	}
	out := make([]Name, 0, len(v.List))
	for _, item := range v.List {
		if item.Kind != IdentVal {
			a.c.failf(item.Pos, "argument %q: each element must be a switch name", name)
		}
		out = append(out, Name{Text: item.Str, Pos: item.Pos})
	}
	return out
}

// pathList returns a list argument of paths (used for churn route pools).
func (a *argSet) pathList(name string) [][]Name {
	v, ok := a.lookup(name)
	if !ok {
		return nil
	}
	if v.Kind != ListVal {
		a.c.failf(v.Pos, "argument %q must be a list of paths like [A -> B, A -> C]", name)
	}
	out := make([][]Name, 0, len(v.List))
	for _, item := range v.List {
		if item.Kind != PathVal {
			a.c.failf(item.Pos, "argument %q: each element must be a path (A -> B)", name)
		}
		out = append(out, item.Path)
	}
	return out
}

// fracList returns a list argument of fractions (used for percentiles).
func (a *argSet) fracList(name string, def []float64) []float64 {
	v, ok := a.lookup(name)
	if !ok {
		return def
	}
	if v.Kind != ListVal {
		a.c.failf(v.Pos, "argument %q must be a list like [50%%, 99%%]", name)
	}
	out := make([]float64, 0, len(v.List))
	for _, item := range v.List {
		f := a.c.number(item, dimFraction, name)
		if f <= 0 || f >= 1 {
			a.c.failf(item.Pos, "percentile must be in (0%%, 100%%), got %v", f)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return def
	}
	return out
}

// durList returns a list argument of durations (used for class targets).
func (a *argSet) durList(name string, def []float64) []float64 {
	v, ok := a.lookup(name)
	if !ok {
		return def
	}
	if v.Kind != ListVal {
		a.c.failf(v.Pos, "argument %q must be a list like [32ms, 320ms]", name)
	}
	out := make([]float64, 0, len(v.List))
	for _, item := range v.List {
		out = append(out, a.c.number(item, dimTime, name))
	}
	return out
}
