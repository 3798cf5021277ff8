package scenario

import (
	"strconv"
	"strings"
)

// lexer turns scenario source into tokens. Comments run from '#' to end of
// line; the comment block at the very top of the file (before any
// token) is collected as the scenario's description.
type lexer struct {
	file string
	src  string
	off  int
	line int
	col  int

	sawToken bool     // a non-comment token has been produced
	desc     []string // leading comment lines (the description block)
}

func newLexer(file, src string) *lexer {
	return &lexer{file: file, src: src, line: 1, col: 1}
}

func (lx *lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *lexer) peekByte() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *lexer) peekByteAt(k int) byte {
	if lx.off+k >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+k]
}

func (lx *lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// isIdentCont reports whether c continues an identifier; '.' joins
// generator-scoped switch names like "db.l1".
func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) || c == '.' }

// skipSpace consumes whitespace and comments, accumulating the leading
// description block.
func (lx *lexer) skipSpace() {
	for lx.off < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '#':
			start := lx.off
			lx.advance()
			for lx.off < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
			if !lx.sawToken {
				line := strings.TrimLeft(lx.src[start:lx.off], "#")
				lx.desc = append(lx.desc, strings.TrimPrefix(line, " "))
			}
		default:
			return
		}
	}
}

// next returns the next token, or a tokEOF at the end of the source. A
// lexical error bails out (fail).
func (lx *lexer) next() token {
	lx.skipSpace()
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return token{kind: tokEOF, pos: pos}
	}
	lx.sawToken = true
	c := lx.peekByte()
	switch {
	case isIdentStart(c):
		start := lx.off
		lx.advance()
		for lx.off < len(lx.src) && isIdentCont(lx.peekByte()) {
			lx.advance()
		}
		return token{kind: tokIdent, pos: pos, text: lx.src[start:lx.off]}
	case isDigit(c):
		start := lx.off
		for lx.off < len(lx.src) && (isDigit(lx.peekByte()) || lx.peekByte() == '.') {
			lx.advance()
		}
		text := lx.src[start:lx.off]
		n, err := strconv.ParseFloat(text, 64)
		if err != nil {
			lx.fail(pos, "malformed number %q", text)
		}
		return token{kind: tokNumber, pos: pos, num: n, text: text}
	case c == ':':
		if lx.peekByteAt(1) == ':' {
			lx.advance()
			lx.advance()
			return token{kind: tokDoubleColon, pos: pos}
		}
		lx.fail(pos, `unexpected ":" (declarations use "::")`)
	case c == '-':
		if lx.peekByteAt(1) == '>' {
			lx.advance()
			lx.advance()
			return token{kind: tokArrow, pos: pos}
		}
		lx.fail(pos, `unexpected "-" (links use "->"; names may not contain "-")`)
	case c == '<':
		if lx.peekByteAt(1) == '-' && lx.peekByteAt(2) == '>' {
			lx.advance()
			lx.advance()
			lx.advance()
			return token{kind: tokDuplex, pos: pos}
		}
		lx.fail(pos, `unexpected "<" (duplex links use "<->")`)
	case c == '(':
		lx.advance()
		return token{kind: tokLParen, pos: pos}
	case c == ')':
		lx.advance()
		return token{kind: tokRParen, pos: pos}
	case c == '[':
		lx.advance()
		return token{kind: tokLBrack, pos: pos}
	case c == ']':
		lx.advance()
		return token{kind: tokRBrack, pos: pos}
	case c == ',':
		lx.advance()
		return token{kind: tokComma, pos: pos}
	case c == ';':
		lx.advance()
		return token{kind: tokSemi, pos: pos}
	case c == '%':
		lx.advance()
		return token{kind: tokPercent, pos: pos}
	case c == '{':
		lx.advance()
		return token{kind: tokLBrace, pos: pos}
	case c == '}':
		lx.advance()
		return token{kind: tokRBrace, pos: pos}
	}
	lx.fail(pos, "unexpected character %q", string(c))
	return token{}
}

// fail stops the lexer — and the parser reading it — at a positioned error:
// it panics a bailout, which Parse's catch returns.
func (lx *lexer) fail(pos Pos, format string, args ...any) {
	panic(bailout{errf(lx.file, pos, format, args...)})
}

// description returns the leading comment block with trailing blank lines
// trimmed.
func (lx *lexer) description() string {
	d := lx.desc
	for len(d) > 0 && strings.TrimSpace(d[len(d)-1]) == "" {
		d = d[:len(d)-1]
	}
	return strings.TrimSpace(strings.Join(d, "\n"))
}
