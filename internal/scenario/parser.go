package scenario

import (
	"os"
	"path/filepath"
	"strings"
)

// units maps every unit suffix the format accepts to its multiplier and
// dimension. Dimensions are checked when an argument is consumed, so
// "horizon 85kbps" is rejected with the argument's position.
var units = map[string]struct {
	mult float64
	dim  dimension
}{
	"bps":  {1, dimBitrate},
	"kbps": {1e3, dimBitrate},
	"Mbps": {1e6, dimBitrate},
	"Gbps": {1e9, dimBitrate},
	"bit":  {1, dimBits},
	"kbit": {1e3, dimBits},
	"Mbit": {1e6, dimBits},
	"ns":   {1e-9, dimTime},
	"us":   {1e-6, dimTime},
	"ms":   {1e-3, dimTime},
	"s":    {1, dimTime},
	"min":  {60, dimTime},
	"pps":  {1, dimPktRate},
	"%":    {0.01, dimFraction},
}

type dimension int

const (
	dimNone dimension = iota
	dimBitrate
	dimBits
	dimTime
	dimPktRate
	dimFraction
)

func (d dimension) String() string {
	switch d {
	case dimBitrate:
		return "a bit rate (bps/kbps/Mbps/Gbps)"
	case dimBits:
		return "a bit count (bit/kbit/Mbit)"
	case dimTime:
		return "a duration (ns/us/ms/s/min)"
	case dimPktRate:
		return "a packet rate (pps)"
	case dimFraction:
		return "a fraction (a bare number or %)"
	}
	return "a bare number"
}

// Parse parses scenario source. name labels diagnostics (conventionally the
// file path); it is not required to exist on disk. The first lexical or
// parse error ends the parse.
func Parse(name string, src []byte) (_ *File, err error) {
	defer catch(&err)
	p := &parser{lx: newLexer(name, string(src))}
	// Every argument follows a '(' or a ','. Their count, capped, sizes the
	// argument slab's first chunk: a file's arguments, most of its AST,
	// then share one allocation of about their size.
	p.args.chunk = make([]Arg, min(strings.Count(p.lx.src, "(")+strings.Count(p.lx.src, ","), maxArgChunk))
	p.advance()
	f := &File{
		Path: name,
		Name: strings.TrimSuffix(filepath.Base(name), ".ispn"),
	}
	for p.tok.kind != tokEOF {
		p.statement(f)
	}
	f.Description = p.lx.description()
	return f, nil
}

// ParseFile reads and parses one .ispn file.
func ParseFile(path string) (*File, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, src)
}

// parser reads tokens into the AST. A list the grammar repeats — a
// declaration's names or arguments, a chain's ends and arrows, a path — is
// read straight into a slab shared by every list of its type in the file,
// each element written in place, and closed at its exact length: one
// allocation serves many lists, and no list grows by doubling.
type parser struct {
	lx  *lexer
	tok token

	names  slab[Name]
	args   slab[Arg]
	duplex slab[bool]
	decls  slab[Decl]
	chains slab[Chain]
	vals   []Value // scratch for list values, which may nest
}

// slab stores lists back to back in shared chunks — the parser's, and the
// compiler's flows and source slots. The open list grows at the end of the
// current chunk and moves to a fresh one when that is full; chunks start
// small and double up to maxSlabChunk elements, so a small file (an injected
// at block) allocates little and a large one few objects. No two lists of
// one slab are ever open at once.
type slab[T any] struct {
	chunk      []T
	start, end int // the open list is chunk[start:end]
}

const (
	maxSlabChunk = 256
	maxArgChunk  = 4096 // 512 kB of arguments
)

// grow appends a zeroed element to s's open list and returns it; the pointer
// is good until the list's next element.
func grow[T any](s *slab[T]) *T {
	if s.end == len(s.chunk) {
		n := s.end - s.start
		chunk := make([]T, max(2*n, min(max(2*len(s.chunk), 8), maxSlabChunk)))
		copy(chunk, s.chunk[s.start:s.end])
		s.chunk, s.start, s.end = chunk, 0, n
	}
	s.end++
	return &s.chunk[s.end-1]
}

// closeList returns s's open list at its length, with capacity to match: an
// append to it reallocates rather than writing over the next list.
func closeList[T any](s *slab[T]) []T {
	out := s.chunk[s.start:s.end:s.end]
	s.start = s.end
	return out
}

// one returns a single zeroed element of s, for a value others point to.
func one[T any](s *slab[T]) *T {
	t := grow(s)
	closeList(s)
	return t
}

// advance moves to the next token.
func (p *parser) advance() { p.lx.next(&p.tok) }

// fail stops the parse at a positioned error, as a lexical error does.
func (p *parser) fail(pos Pos, format string, args ...any) {
	p.lx.fail(pos, format, args...)
}

// expect fails unless the current token is of kind k; the caller reads the
// token and advances past it.
func (p *parser) expect(k tokKind, context string) {
	if p.tok.kind != k {
		p.fail(p.tok.pos, "expected %s %s, found %s", k, context, p.tok.describe())
	}
}

// skip expects a token of kind k and advances past it.
func (p *parser) skip(k tokKind, context string) {
	p.expect(k, context)
	p.advance()
}

// statement parses one declaration, chain, or "at" event block (empty ";"
// statements are skipped).
func (p *parser) statement(f *File) {
	if p.tok.kind == tokSemi {
		p.advance()
		return
	}
	if p.tok.kind != tokIdent {
		p.fail(p.tok.pos, "expected a declaration or link, found %s", p.tok.describe())
	}
	if p.tok.text == "at" && p.peekKind() == tokNumber {
		p.eventBlock(f)
		return
	}
	first := p.name()
	switch p.tok.kind {
	case tokArrow, tokDuplex:
		f.Chains = append(f.Chains, p.chain(first))
	case tokDoubleColon, tokComma:
		f.Decls = append(f.Decls, p.decl(first))
	default:
		p.fail(p.tok.pos, `expected "::", "->", "<->" or "," after %q, found %s`, first.Text, p.tok.describe())
	}
	for p.tok.kind == tokSemi {
		p.advance()
	}
}

// eventBlock parses `at <time> { event-statements }`, the "at" still current.
func (p *parser) eventBlock(f *File) {
	b := &EventBlock{AtPos: p.tok.pos}
	p.advance()
	p.value(&b.At)
	p.skip(tokLBrace, `after "at <time>"`)
	for p.tok.kind != tokRBrace {
		if p.tok.kind == tokSemi {
			p.advance()
			continue
		}
		if p.tok.kind == tokEOF {
			p.fail(b.AtPos, `unterminated "at" block (missing "}")`)
		}
		p.eventStmt(b)
	}
	p.skip(tokRBrace, `to close the "at" block`)
	f.Events = append(f.Events, b)
	for p.tok.kind == tokSemi {
		p.advance()
	}
}

// eventStmt parses one statement inside an event block. The identifiers
// "remove", "fail", "restore", "renew" and "reroute" are verbs in this
// position (and only in this position — top-level elements may still use
// those names).
func (p *parser) eventStmt(b *EventBlock) {
	if p.tok.kind != tokIdent {
		p.fail(p.tok.pos, "expected an event statement, found %s", p.tok.describe())
	}
	switch p.tok.text {
	case "remove":
		op := &EventOp{Verb: "remove", VerbPos: p.tok.pos}
		p.advance()
		*grow(&p.names) = p.name()
		for p.tok.kind == tokComma {
			p.advance()
			*grow(&p.names) = p.name()
		}
		op.Names = closeList(&p.names)
		b.Stmts = append(b.Stmts, EventStmt{Op: op})
	case "fail", "restore", "reroute":
		op := &EventOp{Verb: p.tok.text, VerbPos: p.tok.pos}
		p.advance()
		*grow(&p.names) = p.name()
		if p.tok.kind != tokArrow && p.tok.kind != tokDuplex {
			p.fail(p.tok.pos, `%s needs a link (A -> B or A <-> B), found %s`, op.Verb, p.tok.describe())
		}
		op.Names, op.Duplex = p.links()
		b.Stmts = append(b.Stmts, EventStmt{Op: op})
	case "renew":
		op := &EventOp{Verb: "renew", VerbPos: p.tok.pos}
		p.advance()
		*grow(&p.names) = p.name()
		op.Names = closeList(&p.names)
		p.skip(tokLParen, "after the renew target")
		op.Args = p.argList()
		b.Stmts = append(b.Stmts, EventStmt{Op: op})
	default:
		first := p.name()
		switch p.tok.kind {
		case tokArrow, tokDuplex:
			b.Stmts = append(b.Stmts, EventStmt{Chain: p.chain(first)})
		case tokDoubleColon, tokComma:
			b.Stmts = append(b.Stmts, EventStmt{Decl: p.decl(first)})
		default:
			p.fail(p.tok.pos, `expected "::", "->", "<->", "," or an event verb after %q, found %s`,
				first.Text, p.tok.describe())
		}
	}
	for p.tok.kind == tokSemi {
		p.advance()
	}
}

func (p *parser) name() Name {
	p.expect(tokIdent, "")
	n := Name{Text: p.tok.text, Pos: p.tok.pos}
	p.advance()
	return n
}

// links reads the arrows and names that follow the first end of a chain —
// already on the open name list — and returns the ends and, per arrow,
// whether it was "<->".
func (p *parser) links() ([]Name, []bool) {
	for p.tok.kind == tokArrow || p.tok.kind == tokDuplex {
		*grow(&p.duplex) = p.tok.kind == tokDuplex
		p.advance()
		*grow(&p.names) = p.name()
	}
	return closeList(&p.names), closeList(&p.duplex)
}

// decl parses "a[, b...] :: Kind[(args)]" with first already consumed, and
// resolves the kind's row of the element table once, here.
func (p *parser) decl(first Name) *Decl {
	d := one(&p.decls)
	*grow(&p.names) = first
	for p.tok.kind == tokComma {
		p.advance()
		*grow(&p.names) = p.name()
	}
	d.Names = closeList(&p.names)
	p.skip(tokDoubleColon, `in declaration (name :: Kind)`)
	p.expect(tokIdent, "as element kind")
	d.Kind, d.KindPos, d.elem = p.tok.text, p.tok.pos, declared(p.tok.text)
	p.advance()
	if p.tok.kind == tokLParen {
		p.advance()
		d.Args = p.argList()
	}
	for _, n := range d.Names {
		if strings.Contains(n.Text, ".") {
			p.fail(n.Pos, "declared name %q may not contain '.' (dotted names belong to topology generators)", n.Text)
		}
	}
	return d
}

// chain parses "A -> B [<-> C ...][:: Link(args)]" with A consumed.
func (p *parser) chain(first Name) *Chain {
	c := one(&p.chains)
	*grow(&p.names) = first
	c.Ends, c.Duplex = p.links()
	if p.tok.kind == tokDoubleColon {
		p.advance()
		p.expect(tokIdent, "after '::' on a link")
		if p.tok.text != "Link" {
			p.fail(p.tok.pos, "a chain can only be annotated with Link(...), found %q", p.tok.text)
		}
		p.advance()
		p.skip(tokLParen, "after Link")
		c.Attrs = p.argList()
	}
	return c
}

// argList parses a ')'-terminated argument list, the '(' already consumed.
// Every argument is named ("key value").
func (p *parser) argList() []Arg {
	for {
		if p.tok.kind == tokRParen {
			p.advance()
			return closeList(&p.args)
		}
		p.expect(tokIdent, "(an argument name) in argument list")
		a := grow(&p.args)
		a.Name, a.NamePos = p.tok.text, p.tok.pos
		p.advance()
		p.value(&a.Value) // a value opens no argument list
		switch p.tok.kind {
		case tokComma:
			p.advance()
		case tokRParen:
		default:
			p.fail(p.tok.pos, `expected "," or ")" in argument list, found %s`, p.tok.describe())
		}
	}
}

// peekKind returns the kind of the token after the current one. A lexical
// error there bails out now, as it would once that token is current.
func (p *parser) peekKind() tokKind {
	save := *p.lx
	var t token
	p.lx.next(&t)
	*p.lx = save
	return t.kind
}

// value parses one argument value into v.
func (p *parser) value(v *Value) {
	v.Pos = p.tok.pos
	switch p.tok.kind {
	case tokNumber:
		v.Kind, v.Num = NumberVal, p.tok.num
		p.advance()
		if p.tok.kind == tokPercent {
			p.advance()
			v.Unit = "%"
		} else if p.tok.kind == tokIdent {
			if _, ok := units[p.tok.text]; ok {
				v.Unit = p.tok.text
				p.advance()
			}
		}
		return
	case tokIdent:
		text := p.tok.text
		p.advance()
		if p.tok.kind == tokArrow || p.tok.kind == tokDuplex {
			*grow(&p.names) = Name{Text: text, Pos: v.Pos}
			for p.tok.kind == tokArrow || p.tok.kind == tokDuplex {
				if p.tok.kind == tokDuplex {
					p.fail(p.tok.pos, `paths are directional; use "->"`)
				}
				p.advance()
				*grow(&p.names) = p.name()
			}
			v.Kind, v.Path = PathVal, closeList(&p.names)
			return
		}
		v.Kind, v.Str = IdentVal, text
		return
	case tokLBrack:
		v.Kind = ListVal
		p.advance()
		base := len(p.vals)
		for {
			if p.tok.kind == tokRBrack {
				p.advance()
				if len(p.vals) > base {
					v.List = append([]Value(nil), p.vals[base:]...)
					p.vals = p.vals[:base]
				}
				return
			}
			// An item is parsed aside and then pushed: a nested list
			// pushes items of its own, which may move the stack.
			var item Value
			p.value(&item)
			p.vals = append(p.vals, item)
			switch p.tok.kind {
			case tokComma:
				p.advance()
			case tokRBrack:
			default:
				p.fail(p.tok.pos, `expected "," or "]" in list, found %s`, p.tok.describe())
			}
		}
	}
	p.fail(p.tok.pos, "expected a value, found %s", p.tok.describe())
}
