package scenario

import "fmt"

// Pos is a 1-indexed position in a scenario file.
type Pos struct {
	Line, Col int
}

// Error is a scenario-file diagnostic carrying the file name and position it
// refers to; its text renders as "file:line:col: message" so editors and CI
// logs can jump to the offending token.
type Error struct {
	File string
	Pos  Pos
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Pos.Line, e.Pos.Col, e.Msg)
}

func errf(file string, pos Pos, format string, args ...any) *Error {
	return &Error{File: file, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// bailout is how the lexer, the parser and the compiler stop at their first
// error, as go/parser and text/template do: the error site (lexer.fail,
// parser.fail, compiler.failf) panics one, and the entry point that deferred
// catch — Parse, Compile, an injection's compile — returns its error.
// Nothing runs past the first error, so nothing has to carry it forward.
type bailout struct{ err *Error }

// catch, deferred, turns a bailout back into the error its function returns.
// Any other panic is a bug, not a diagnostic: catch re-panics it with its
// value unchanged, so it stays the crash it is instead of becoming a
// file:line:col message.
func catch(err *error) {
	switch r := recover().(type) {
	case nil:
	case bailout:
		*err = r.err
	default:
		panic(r)
	}
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokDoubleColon // ::
	tokArrow       // ->
	tokDuplex      // <->
	tokLParen      // (
	tokRParen      // )
	tokLBrack      // [
	tokRBrack      // ]
	tokComma       // ,
	tokSemi        // ;
	tokPercent     // %
	tokLBrace      // {
	tokRBrace      // }
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of file"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokDoubleColon:
		return `"::"`
	case tokArrow:
		return `"->"`
	case tokDuplex:
		return `"<->"`
	case tokLParen:
		return `"("`
	case tokRParen:
		return `")"`
	case tokLBrack:
		return `"["`
	case tokRBrack:
		return `"]"`
	case tokComma:
		return `","`
	case tokSemi:
		return `";"`
	case tokPercent:
		return `"%"`
	case tokLBrace:
		return `"{"`
	case tokRBrace:
		return `"}"`
	}
	return "token"
}

type token struct {
	kind tokKind
	pos  Pos
	text string  // identifier
	num  float64 // number value
}

func (t token) describe() string {
	switch t.kind {
	case tokIdent:
		return fmt.Sprintf("%q", t.text)
	case tokNumber:
		return fmt.Sprintf("number %v", t.num)
	default:
		return t.kind.String()
	}
}
