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
	p.tok = p.lx.next()
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

type parser struct {
	lx  *lexer
	tok token
}

func (p *parser) advance() token {
	t := p.tok
	p.tok = p.lx.next()
	return t
}

// fail stops the parse at a positioned error, as a lexical error does.
func (p *parser) fail(pos Pos, format string, args ...any) {
	p.lx.fail(pos, format, args...)
}

func (p *parser) expect(k tokKind, context string) token {
	if p.tok.kind != k {
		p.fail(p.tok.pos, "expected %s %s, found %s", k, context, p.tok.describe())
	}
	return p.advance()
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
	atTok := p.advance()
	b := &EventBlock{AtPos: atTok.pos, At: p.value()}
	p.expect(tokLBrace, `after "at <time>"`)
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
	p.expect(tokRBrace, `to close the "at" block`)
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
		t := p.advance()
		op := &EventOp{Verb: "remove", VerbPos: t.pos, Names: []Name{p.name()}}
		for p.tok.kind == tokComma {
			p.advance()
			op.Names = append(op.Names, p.name())
		}
		b.Stmts = append(b.Stmts, EventStmt{Op: op})
	case "fail", "restore", "reroute":
		t := p.advance()
		op := &EventOp{Verb: t.text, VerbPos: t.pos, Names: []Name{p.name()}}
		if p.tok.kind != tokArrow && p.tok.kind != tokDuplex {
			p.fail(p.tok.pos, `%s needs a link (A -> B or A <-> B), found %s`, op.Verb, p.tok.describe())
		}
		for p.tok.kind == tokArrow || p.tok.kind == tokDuplex {
			op.Duplex = append(op.Duplex, p.tok.kind == tokDuplex)
			p.advance()
			op.Names = append(op.Names, p.name())
		}
		b.Stmts = append(b.Stmts, EventStmt{Op: op})
	case "renew":
		t := p.advance()
		op := &EventOp{Verb: "renew", VerbPos: t.pos, Names: []Name{p.name()}}
		p.expect(tokLParen, "after the renew target")
		op.Args = p.args()
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
	t := p.expect(tokIdent, "")
	return Name{Text: t.text, Pos: t.pos}
}

// decl parses "a[, b...] :: Kind[(args)]" with first already consumed.
func (p *parser) decl(first Name) *Decl {
	d := &Decl{Names: []Name{first}}
	for p.tok.kind == tokComma {
		p.advance()
		d.Names = append(d.Names, p.name())
	}
	p.expect(tokDoubleColon, `in declaration (name :: Kind)`)
	kind := p.expect(tokIdent, "as element kind")
	d.Kind, d.KindPos = kind.text, kind.pos
	if p.tok.kind == tokLParen {
		p.advance()
		d.Args = p.args()
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
	c := &Chain{Ends: []Name{first}}
	for p.tok.kind == tokArrow || p.tok.kind == tokDuplex {
		c.Duplex = append(c.Duplex, p.tok.kind == tokDuplex)
		p.advance()
		c.Ends = append(c.Ends, p.name())
	}
	if p.tok.kind == tokDoubleColon {
		p.advance()
		kind := p.expect(tokIdent, "after '::' on a link")
		if kind.text != "Link" {
			p.fail(kind.pos, "a chain can only be annotated with Link(...), found %q", kind.text)
		}
		p.expect(tokLParen, "after Link")
		c.Attrs = p.args()
	}
	return c
}

// args parses a ')'-terminated argument list, the '(' already consumed.
func (p *parser) args() []Arg {
	var out []Arg
	for {
		if p.tok.kind == tokRParen {
			p.advance()
			return out
		}
		out = append(out, p.arg())
		switch p.tok.kind {
		case tokComma:
			p.advance()
		case tokRParen:
		default:
			p.fail(p.tok.pos, `expected "," or ")" in argument list, found %s`, p.tok.describe())
		}
	}
}

// arg parses "key value": every argument is named.
func (p *parser) arg() Arg {
	key := p.expect(tokIdent, "(an argument name) in argument list")
	return Arg{Name: key.text, NamePos: key.pos, Value: p.value()}
}

// peekKind returns the kind of the token after the current one. A lexical
// error there bails out now, as it would once that token is current.
func (p *parser) peekKind() tokKind {
	save := *p.lx
	t := p.lx.next()
	*p.lx = save
	return t.kind
}

func (p *parser) value() Value {
	switch p.tok.kind {
	case tokNumber:
		t := p.advance()
		v := Value{Pos: t.pos, Kind: NumberVal, Num: t.num}
		if p.tok.kind == tokPercent {
			p.advance()
			v.Unit = "%"
		} else if p.tok.kind == tokIdent {
			if _, ok := units[p.tok.text]; ok {
				v.Unit = p.advance().text
			}
		}
		return v
	case tokIdent:
		t := p.advance()
		if p.tok.kind == tokArrow || p.tok.kind == tokDuplex {
			path := []Name{{Text: t.text, Pos: t.pos}}
			for p.tok.kind == tokArrow || p.tok.kind == tokDuplex {
				if p.tok.kind == tokDuplex {
					p.fail(p.tok.pos, `paths are directional; use "->"`)
				}
				p.advance()
				path = append(path, p.name())
			}
			return Value{Pos: t.pos, Kind: PathVal, Path: path}
		}
		return Value{Pos: t.pos, Kind: IdentVal, Str: t.text}
	case tokLBrack:
		t := p.advance()
		v := Value{Pos: t.pos, Kind: ListVal}
		for {
			if p.tok.kind == tokRBrack {
				p.advance()
				return v
			}
			v.List = append(v.List, p.value())
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
	return Value{}
}
