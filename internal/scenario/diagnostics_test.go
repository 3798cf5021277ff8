package scenario

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var updateDiagnostics = flag.Bool("update-diagnostics", false,
	"rewrite testdata/mutated-diagnostics.golden from the current front end")

const diagnosticsGolden = "testdata/mutated-diagnostics.golden"

// TestMutatedDiagnosticsPinned pins what the front end says about broken
// programs: seeded mutations of every library scenario (truncations, dropped
// token spans, duplicated lines, numeric literals set to 0 or -1, uses
// renamed to an undeclared name) go through Parse and Compile, and mutations
// of the library's at blocks go through InjectEvents before and after Start.
// Each case prints "ok" or its file:line:col diagnostic; the lines must match
// the golden byte for byte. Regenerate with
// `go test ./internal/scenario -run TestMutatedDiagnosticsPinned -update-diagnostics`
// only when a diagnostic is meant to change.
func TestMutatedDiagnosticsPinned(t *testing.T) {
	entries, err := os.ReadDir(libraryDir)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".ispn") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(libraryDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		name, src := e.Name(), string(raw)
		for i, m := range mutations(name, src, 150) {
			fmt.Fprintf(&out, "%s #%d %s: %s\n", name, i, m.desc, caseResult(t, func() string {
				return compileResult(name, m.src)
			}))
		}
		base, blocks := splitAtBlocks(src)
		if blocks == "" {
			continue
		}
		for i, m := range append([]mutation{{"as written", blocks}}, mutations(name+" at", blocks, 40)...) {
			for _, started := range []bool{false, true} {
				mode := "inject-before-start"
				if started {
					mode = "inject-after-start"
				}
				fmt.Fprintf(&out, "%s %s #%d %s: %s\n", name, mode, i, m.desc, caseResult(t, func() string {
					return injectResult(t, name, base, m.src, started)
				}))
			}
		}
	}
	got := out.String()
	if *updateDiagnostics {
		if err := os.WriteFile(diagnosticsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(diagnosticsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got: %s\nwant: %s", i+1, diagnosticsGolden, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, golden has %d", len(gl), len(wl))
	}
}

// TestCatchPassesForeignPanicsThrough checks catch's contract: a bailout
// comes back as its error, and any other panic — a bare *Error, a string, an
// error, a runtime fault — propagates with its value unchanged, so a bug in
// the front end stays a crash instead of becoming a diagnostic.
func TestCatchPassesForeignPanicsThrough(t *testing.T) {
	guarded := func(fn func()) (err error) {
		defer catch(&err)
		fn()
		return nil
	}
	escaped := func(fn func()) (r any) {
		defer func() { r = recover() }()
		guarded(fn)
		return nil
	}
	diag := errf("x.ispn", Pos{Line: 2, Col: 3}, "bad")
	if err := guarded(func() { panic(bailout{diag}) }); err != diag {
		t.Fatalf("bailout came back as %v, want %v", err, diag)
	}
	if err := guarded(func() {}); err != nil {
		t.Fatalf("no panic came back as %v", err)
	}
	for _, foreign := range []any{diag, "a string", errors.New("an error")} {
		if r := escaped(func() { panic(foreign) }); r != foreign {
			t.Errorf("panic(%#v) escaped as %#v", foreign, r)
		}
	}
	var m map[string]int
	if r := escaped(func() { m["x"] = 1 }); r == nil {
		t.Error("a runtime fault was swallowed")
	} else if _, ok := r.(runtime.Error); !ok {
		t.Errorf("a runtime fault escaped as %#v", r)
	}
}

// caseResult runs one case, turning a panic into a test failure (a front
// end answers every input with a Sim or a positioned error).
func caseResult(t *testing.T, run func() string) (res string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("panic: %v", r)
			res = fmt.Sprintf("PANIC %v", r)
		}
	}()
	return run()
}

func compileResult(name, src string) string {
	f, err := Parse(name, []byte(src))
	if err != nil {
		return err.Error()
	}
	if _, err := Compile(f, Options{}); err != nil {
		return err.Error()
	}
	return "ok"
}

// injectResult compiles base and injects blocks into it, before Start or
// one simulated second after it.
func injectResult(t *testing.T, name, base, blocks string, started bool) string {
	f, err := Parse(name, []byte(base))
	if err != nil {
		t.Fatalf("%s without its at blocks: %v", name, err)
	}
	s, err := Compile(f, Options{})
	if err != nil {
		t.Fatalf("%s without its at blocks: %v", name, err)
	}
	if started {
		s.StepTo(1)
	}
	if _, err := s.InjectEvents("inject.ispn", []byte(blocks)); err != nil {
		return err.Error()
	}
	return "ok"
}

// atBlockRE finds the start of a top-level at block; the library writes
// each at the start of a line, with no braces inside.
var atBlockRE = regexp.MustCompile(`(?m)^at [0-9][^{\n]*\{[^}]*\}\n?`)

// splitAtBlocks returns src without its at blocks, and the blocks.
func splitAtBlocks(src string) (base, blocks string) {
	return atBlockRE.ReplaceAllString(src, ""), strings.Join(atBlockRE.FindAllString(src, -1), "")
}

type mutation struct {
	desc string
	src  string
}

// mutTokenRE splits .ispn source into comments and tokens, independently of
// the lexer under test.
var mutTokenRE = regexp.MustCompile(`#[^\n]*|<->|->|::|[A-Za-z_][A-Za-z0-9_.]*|[0-9][0-9.]*|\S`)

type mutToken struct {
	start, end int
	text       string
}

// mutations returns n deterministic mutations of src, seeded by label: the
// five kinds in turn.
func mutations(label, src string, n int) []mutation {
	h := fnv.New64a()
	h.Write([]byte(label))
	rng := rand.New(rand.NewPCG(1992, h.Sum64()))

	var toks, nums, uses []mutToken
	seen := map[string]bool{}
	for _, loc := range mutTokenRE.FindAllStringIndex(src, -1) {
		tk := mutToken{loc[0], loc[1], src[loc[0]:loc[1]]}
		c := tk.text[0]
		switch {
		case c == '#':
			continue
		case c >= '0' && c <= '9':
			nums = append(nums, tk)
		case c == '_' || (c|0x20 >= 'a' && c|0x20 <= 'z'):
			if seen[tk.text] {
				uses = append(uses, tk)
			}
			seen[tk.text] = true
		}
		toks = append(toks, tk)
	}
	lines := strings.SplitAfter(src, "\n")
	lineCol := func(off int) string {
		line := strings.Count(src[:off], "\n") + 1
		return fmt.Sprintf("%d:%d", line, off-strings.LastIndex(src[:off], "\n"))
	}
	splice := func(from, to int, with string) string { return src[:from] + with + src[to:] }

	var out []mutation
	for i := 0; len(out) < n; i++ {
		switch i % 5 {
		case 0:
			k := rng.IntN(len(src) + 1)
			out = append(out, mutation{fmt.Sprintf("truncate at byte %d", k), src[:k]})
		case 1:
			j := rng.IntN(len(toks))
			k := min(j+rng.IntN(3), len(toks)-1)
			out = append(out, mutation{
				fmt.Sprintf("drop %d tokens at %s", k-j+1, lineCol(toks[j].start)),
				splice(toks[j].start, toks[k].end, ""),
			})
		case 2:
			l := rng.IntN(len(lines))
			dup := strings.Join(lines[:l+1], "") + strings.TrimSuffix(lines[l], "\n") + "\n" + strings.Join(lines[l+1:], "")
			out = append(out, mutation{fmt.Sprintf("duplicate line %d", l+1), dup})
		case 3:
			if len(nums) == 0 {
				continue
			}
			tk, with := nums[rng.IntN(len(nums))], []string{"0", "-1"}[rng.IntN(2)]
			out = append(out, mutation{
				fmt.Sprintf("number at %s to %s", lineCol(tk.start), with),
				splice(tk.start, tk.end, with),
			})
		case 4:
			if len(uses) == 0 {
				continue
			}
			tk := uses[rng.IntN(len(uses))]
			out = append(out, mutation{
				fmt.Sprintf("rename %q at %s", tk.text, lineCol(tk.start)),
				splice(tk.start, tk.end, "undeclared"),
			})
		}
	}
	return out
}
