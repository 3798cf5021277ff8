package scenario

import (
	"fmt"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse("test.ispn", []byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

func TestParseDeclarations(t *testing.T) {
	f := mustParse(t, `
# A scenario description
# on two lines.

net :: Net(rate 1Mbps, classes 2)
A, B, C :: Switch
conf :: Predicted(rate 85kbps, bucket 50kbit, delay 100ms, loss 1%,
                  path A -> B -> C)
`)
	if want := "A scenario description\non two lines."; f.Description != want {
		t.Errorf("description = %q, want %q", f.Description, want)
	}
	if len(f.Decls) != 3 {
		t.Fatalf("got %d decls, want 3", len(f.Decls))
	}
	sw := f.Decls[1]
	if sw.Kind != "Switch" || len(sw.Names) != 3 || sw.Names[2].Text != "C" {
		t.Errorf("switch decl parsed wrong: %+v", sw)
	}
	conf := f.Decls[2]
	if conf.Kind != "Predicted" || len(conf.Args) != 5 {
		t.Fatalf("predicted decl parsed wrong: %+v", conf)
	}
	var path *Value
	for i := range conf.Args {
		if conf.Args[i].Name == "path" {
			path = &conf.Args[i].Value
		}
	}
	if path == nil || path.Kind != PathVal || len(path.Path) != 3 || path.Path[1].Text != "B" {
		t.Errorf("path arg parsed wrong: %+v", path)
	}
}

func TestParseUnitsAndLists(t *testing.T) {
	f := mustParse(t, `run :: Run(seed 7, horizon 500ms, percentiles [50%, 99.9%])`)
	args := f.Decls[0].Args
	if args[1].Value.Num != 500 || args[1].Value.Unit != "ms" {
		t.Errorf("horizon = %+v", args[1].Value)
	}
	list := args[2].Value
	if list.Kind != ListVal || len(list.List) != 2 ||
		list.List[1].Num != 99.9 || list.List[1].Unit != "%" {
		t.Errorf("percentiles = %+v", list)
	}
}

func TestParseChains(t *testing.T) {
	f := mustParse(t, `
A, B, C :: Switch
A -> B <-> C :: Link(rate 2Mbps, delay 5ms)
src :: CBR(rate 10pps)
flow :: Datagram(path A -> B)
src -> flow
`)
	if len(f.Chains) != 2 {
		t.Fatalf("got %d chains, want 2", len(f.Chains))
	}
	link := f.Chains[0]
	if len(link.Ends) != 3 || link.Duplex[0] || !link.Duplex[1] || len(link.Attrs) != 2 {
		t.Errorf("link chain parsed wrong: %+v", link)
	}
	attach := f.Chains[1]
	if len(attach.Ends) != 2 || attach.Ends[0].Text != "src" || attach.Ends[1].Text != "flow" {
		t.Errorf("attachment chain parsed wrong: %+v", attach)
	}
}

func TestParseDottedNames(t *testing.T) {
	f := mustParse(t, `
db :: Dumbbell(left 1, right 1)
long_haul :: TCP(path db.l1 -> db.a -> db.b -> db.r1)
`)
	var path Value
	for _, a := range f.Decls[1].Args {
		if a.Name == "path" {
			path = a.Value
		}
	}
	if len(path.Path) != 4 || path.Path[0].Text != "db.l1" || path.Path[3].Text != "db.r1" {
		t.Errorf("dotted path = %+v", path.Path)
	}
}

// TestParseErrors asserts that malformed input is rejected with a message
// anchored to the right file:line:col.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		src      string
		wantPos  string // "line:col"
		wantText string // substring of the message
	}{
		{"net ::", "1:7", "element kind"},
		{"net :: Net(rate 1Mbps", "1:22", `expected "," or ")"`},
		{"a :: Net(rate 5 @)", "1:17", "unexpected character"},
		{"a -> ", "1:6", "identifier"},
		{"a <- b", "1:3", `duplex links use "<->"`},
		{"a : b", "1:3", `declarations use "::"`},
		{`a :: Net("x")`, "1:10", `unexpected character "\""`},
		{"a.b :: Switch", "1:1", "may not contain '.'"},
		{"a -> b :: Queue(3)", "1:11", "annotated with Link"},
		{"net :: Net(targets [32ms, )", "1:27", "expected a value"},
		{"42 :: Switch", "1:1", "expected a declaration or link"},
		// Arguments are always named; '#' is the only comment; names take
		// no '-'.
		{"a, b :: Switch(42)", "1:16", "(an argument name) in argument list, found number 42"},
		{"s :: CBR(5pps, rate 10pps)", "1:10", "(an argument name) in argument list, found number 5"},
		{"a :: Switch\n// a note", "2:1", `unexpected character "/"`},
		{"long-haul :: Switch", "1:5", `names may not contain "-"`},
	}
	for _, tc := range cases {
		_, err := Parse("bad.ispn", []byte(tc.src))
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", tc.src)
			continue
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "bad.ispn:"+tc.wantPos+":") {
			t.Errorf("Parse(%q) error = %q, want position %s", tc.src, msg, tc.wantPos)
		}
		if !strings.Contains(msg, tc.wantText) {
			t.Errorf("Parse(%q) error = %q, want substring %q", tc.src, msg, tc.wantText)
		}
	}
}

func TestParseFileMissing(t *testing.T) {
	if _, err := ParseFile("/nonexistent/x.ispn"); err == nil {
		t.Fatal("ParseFile on a missing file succeeded")
	}
}

// TestLexerColumns pins token positions where counting columns is easy to
// get wrong: a column is the byte offset from the start of the line plus
// one, so a tab is one column and a CR before a line's LF is the line's last
// column; a comment line and a declaration spanning lines count their line
// ends like any other.
func TestLexerColumns(t *testing.T) {
	src := "a,\tb :: Switch\r\n" +
		"# a comment, with a comma\r\n" +
		"\tf :: Datagram(path a\r\n" +
		"\t\t-> b)  # trailing\n" +
		"x :: CBR(rate\t10pps)"
	want := []string{
		"a 1:1", ", 1:2", "b 1:4", ":: 1:6", "Switch 1:9",
		"f 3:2", ":: 3:4", "Datagram 3:7", "( 3:15", "path 3:16", "a 3:21",
		"-> 4:3", "b 4:6", ") 4:7",
		"x 5:1", ":: 5:3", "CBR 5:6", "( 5:9", "rate 5:10", "10 5:15", "pps 5:17", ") 5:20",
		"EOF 5:21",
	}
	lx := newLexer("cols.ispn", src)
	var got []string
	for {
		var tok token
		lx.next(&tok)
		text := tok.text
		switch tok.kind {
		case tokEOF:
			text = "EOF"
		case tokIdent, tokNumber:
		default:
			text = strings.Trim(tok.kind.String(), `"`)
		}
		got = append(got, fmt.Sprintf("%s %d:%d", text, tok.pos.Line, tok.pos.Col))
		if tok.kind == tokEOF {
			break
		}
	}
	if strings.Join(got, " | ") != strings.Join(want, " | ") {
		t.Errorf("tokens:\n got %s\nwant %s", strings.Join(got, " | "), strings.Join(want, " | "))
	}

	// The same positions reach the AST and a compile diagnostic.
	f := mustParse(t, src)
	if hop := f.Decls[1].Args[0].Value.Path[1]; hop.Pos != (Pos{Line: 4, Col: 6}) {
		t.Errorf("second path hop at %d:%d, want 4:6", hop.Pos.Line, hop.Pos.Col)
	}
	if _, err := Compile(f, Options{}); err == nil || !strings.HasPrefix(err.Error(), "test.ispn:3:21: path needs a link a -> b") {
		t.Errorf("compile error = %v, want one at 3:21 for the missing link", err)
	}
}
