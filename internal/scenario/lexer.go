package scenario

import (
	"strconv"
	"strings"
)

// lexer turns scenario source into tokens. Comments run from '#' to end of
// line; the comment block at the very top of the file (before any
// token) is collected as the scenario's description. Only line ends are
// counted: a position's column is its byte offset from the start of its
// line, plus one.
type lexer struct {
	file      string
	src       string
	off       int
	line      int
	lineStart int // offset of the first byte of the current line

	sawToken bool     // a non-comment token has been produced
	desc     []string // leading comment lines (the description block)
}

func newLexer(file, src string) *lexer {
	return &lexer{file: file, src: src, line: 1}
}

func (lx *lexer) pos() Pos { return Pos{Line: int32(lx.line), Col: int32(lx.off - lx.lineStart + 1)} }

// peekByteAt returns the byte k past the current one, or 0 past the end.
func (lx *lexer) peekByteAt(k int) byte {
	if lx.off+k >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+k]
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
		switch lx.src[lx.off] {
		case ' ', '\t', '\r':
			lx.off++
		case '\n':
			lx.off++
			lx.line++
			lx.lineStart = lx.off
		case '#':
			start := lx.off
			for lx.off < len(lx.src) && lx.src[lx.off] != '\n' {
				lx.off++
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

// punct is the kind of each single-byte punctuation token (tokEOF: none).
var punct = [256]tokKind{
	'(': tokLParen, ')': tokRParen, '[': tokLBrack, ']': tokRBrack,
	',': tokComma, ';': tokSemi, '%': tokPercent, '{': tokLBrace, '}': tokRBrace,
}

// next reads the next token into t — a tokEOF at the end of the source. A
// lexical error bails out (fail).
func (lx *lexer) next(t *token) {
	lx.skipSpace()
	t.pos, t.text, t.num = lx.pos(), "", 0
	if lx.off >= len(lx.src) {
		t.kind = tokEOF
		return
	}
	lx.sawToken = true
	c := lx.src[lx.off]
	switch {
	case isIdentStart(c):
		start := lx.off
		lx.off++
		for lx.off < len(lx.src) && isIdentCont(lx.src[lx.off]) {
			lx.off++
		}
		t.kind, t.text = tokIdent, lx.src[start:lx.off]
		return
	case isDigit(c):
		start, whole := lx.off, true
		for lx.off < len(lx.src) && (isDigit(lx.src[lx.off]) || lx.src[lx.off] == '.') {
			whole = whole && lx.src[lx.off] != '.'
			lx.off++
		}
		t.kind, t.text = tokNumber, lx.src[start:lx.off]
		if whole && len(t.text) <= 15 {
			// Up to 15 digits are an exact float64; ParseFloat gives the same.
			n := 0
			for i := 0; i < len(t.text); i++ {
				n = 10*n + int(t.text[i]-'0')
			}
			t.num = float64(n)
			return
		}
		n, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			lx.fail(t.pos, "malformed number %q", t.text)
		}
		t.num = n
		return
	case c == ':':
		if lx.peekByteAt(1) == ':' {
			lx.off += 2
			t.kind = tokDoubleColon
			return
		}
		lx.fail(t.pos, `unexpected ":" (declarations use "::")`)
	case c == '-':
		if lx.peekByteAt(1) == '>' {
			lx.off += 2
			t.kind = tokArrow
			return
		}
		lx.fail(t.pos, `unexpected "-" (links use "->"; names may not contain "-")`)
	case c == '<':
		if lx.peekByteAt(1) == '-' && lx.peekByteAt(2) == '>' {
			lx.off += 3
			t.kind = tokDuplex
			return
		}
		lx.fail(t.pos, `unexpected "<" (duplex links use "<->")`)
	case punct[c] != tokEOF:
		lx.off++
		t.kind = punct[c]
		return
	}
	lx.fail(t.pos, "unexpected character %q", string(c))
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
