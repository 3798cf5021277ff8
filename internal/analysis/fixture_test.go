package analysis_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ispn/internal/analysis"
)

// The analyzer tests run over golden fixture packages, in the style of
// golang.org/x/tools/go/analysis/analysistest: fixture sources live under
// testdata/src/<importpath>/ and carry `// want "regexp"` comments on the
// lines where a diagnostic is expected. Fixtures can stub repo packages
// (e.g. testdata/src/ispn/internal/packet) because analyzers match types by
// name and import-path suffix.
const fixtureRoot = "testdata/src"

// checkFixtures loads each fixture package path rooted at testdata/src,
// applies the analyzer (through the same allow-annotation machinery the real
// driver uses), and compares the diagnostics against the fixtures' want
// comments.
func checkFixtures(t *testing.T, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	ld := newLoader()
	for _, path := range paths {
		pkg, err := ld.load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		diags, err := analysis.RunPackage(pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, path, err)
		}
		checkWants(t, ld.fset, pkg, diags)
	}
}

// loadFixture type-checks one fixture package rooted at testdata/src, for
// tests that assert on raw diagnostics instead of want comments (e.g. the
// allow hygiene rules, whose fixtures contain deliberately malformed
// annotations).
func loadFixture(t *testing.T, path string) *analysis.Package {
	t.Helper()
	pkg, err := newLoader().load(path)
	if err != nil {
		t.Fatalf("loading %s: %v", path, err)
	}
	return pkg
}

// expectation is one `// want "re"` comment.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`// want (".*")\s*$`)

func checkWants(t *testing.T, fset *token.FileSet, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				quoted := m[1]
				var pat string
				if _, err := fmt.Sscanf(quoted, "%q", &pat); err != nil {
					t.Fatalf("%s: bad want %s: %v", fset.Position(c.Pos()), quoted, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp: %v", fset.Position(c.Pos()), err)
				}
				pos := fset.Position(c.Pos())
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// loader resolves fixture imports below testdata/src first and falls back
// to the from-source standard-library importer.
type loader struct {
	fset    *token.FileSet
	std     types.Importer
	checked map[string]*analysis.Package
}

func newLoader() *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		checked: map[string]*analysis.Package{},
	}
}

func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if st, err := os.Stat(filepath.Join(fixtureRoot, filepath.FromSlash(path))); err == nil && st.IsDir() {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.std.Import(path)
}

func (ld *loader) load(path string) (*analysis.Package, error) {
	if pkg, ok := ld.checked[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(fixtureRoot, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	pkg := &analysis.Package{
		Path:  path,
		Dir:   dir,
		Fset:  ld.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	ld.checked[path] = pkg
	return pkg, nil
}
