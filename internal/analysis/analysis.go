// Package analysis is ispnvet's home: a small, dependency-free analogue of
// golang.org/x/tools/go/analysis that mechanically enforces the coding
// disciplines every repo guarantee rests on — sorted map iteration, named
// sim.RNG streams instead of wall-clock or global-rand nondeterminism,
// canonical same-instant event keys, packet.Pool release-on-every-path
// ownership, and nil-guarded optional report sections (docs/ANALYSIS.md).
//
// The x/tools module is deliberately not a dependency (the repo has none);
// the framework here covers the slice of its API the five ispnvet analyzers
// need: an Analyzer with a Run function over a type-checked Pass, positioned
// diagnostics, and an `//ispnvet:allow <analyzer>: <justification>` escape
// hatch whose justification string is mandatory and whose staleness is
// itself diagnosed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one ispnvet check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //ispnvet:allow annotations.
	Name string
	// Doc is a one-paragraph description (first line: one-sentence summary).
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package's import path. External test packages
	// (package foo_test) report the path of the package under test, so
	// analyzers scope by directory, not by build-unit spelling.
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	unit *unit
}

// Reportf records a diagnostic at pos unless an //ispnvet:allow annotation
// for this analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.unit.allows.suppress(p.Analyzer.Name, position) {
		return
	}
	p.unit.diags = append(p.unit.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned for file:line:col rendering.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// unit is the per-package state shared by every analyzer pass: the allow
// index built from the package's comments and the diagnostic sink.
type unit struct {
	allows *allowIndex
	diags  []Diagnostic
}

// AllowPrefix is the comment directive that suppresses one analyzer on one
// line. The full form is:
//
//	//ispnvet:allow <analyzer>: <justification>
//
// As a trailing comment it covers its own line; as a standalone comment it
// covers the next line. The justification is mandatory: an annotation
// without one is itself a diagnostic, as is an annotation that no longer
// suppresses anything (stale) or that names an unknown analyzer.
const AllowPrefix = "//ispnvet:allow"

// allowAnnotation is one parsed //ispnvet:allow comment.
type allowAnnotation struct {
	analyzer      string
	justification string
	pos           token.Position
	lines         [2]int // the source lines the annotation covers
	used          bool
}

type allowIndex struct {
	// byTarget maps analyzer -> file -> covered line -> annotation.
	byTarget map[string]map[string]map[int]*allowAnnotation
	all      []*allowAnnotation
	broken   []Diagnostic
}

// buildAllowIndex scans every comment in files for allow annotations.
// Malformed annotations (no analyzer name, or an empty justification)
// become diagnostics immediately; they never suppress anything.
func buildAllowIndex(fset *token.FileSet, files []*ast.File, known map[string]bool) *allowIndex {
	idx := &allowIndex{byTarget: map[string]map[string]map[int]*allowAnnotation{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, AllowPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, AllowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //ispnvet:allowance — not ours
				}
				name, just, ok := strings.Cut(strings.TrimSpace(rest), ":")
				name = strings.TrimSpace(name)
				just = strings.TrimSpace(just)
				switch {
				case name == "":
					idx.broken = append(idx.broken, Diagnostic{
						Analyzer: "ispnvet", Pos: pos,
						Message: "ispnvet:allow needs an analyzer name: //ispnvet:allow <analyzer>: <justification>",
					})
					continue
				case !known[name]:
					idx.broken = append(idx.broken, Diagnostic{
						Analyzer: "ispnvet", Pos: pos,
						Message: fmt.Sprintf("ispnvet:allow names unknown analyzer %q (have %s)", name, knownNames(known)),
					})
					continue
				case !ok || just == "":
					idx.broken = append(idx.broken, Diagnostic{
						Analyzer: "ispnvet", Pos: pos,
						Message: fmt.Sprintf("ispnvet:allow %s needs a justification: //ispnvet:allow %s: <why this is deterministic/safe>", name, name),
					})
					continue
				}
				ann := &allowAnnotation{
					analyzer: name, justification: just, pos: pos,
					lines: [2]int{pos.Line, pos.Line + 1},
				}
				idx.all = append(idx.all, ann)
				files := idx.byTarget[name]
				if files == nil {
					files = map[string]map[int]*allowAnnotation{}
					idx.byTarget[name] = files
				}
				lines := files[pos.Filename]
				if lines == nil {
					lines = map[int]*allowAnnotation{}
					files[pos.Filename] = lines
				}
				for _, l := range ann.lines {
					lines[l] = ann
				}
			}
		}
	}
	return idx
}

func (idx *allowIndex) suppress(analyzer string, pos token.Position) bool {
	if ann := idx.byTarget[analyzer][pos.Filename][pos.Line]; ann != nil {
		ann.used = true
		return true
	}
	return false
}

// stale returns diagnostics for annotations that suppressed nothing: an
// allow that outlives its violation must be deleted, or it hides the next
// real one on that line.
func (idx *allowIndex) stale() []Diagnostic {
	var out []Diagnostic
	for _, ann := range idx.all {
		if !ann.used {
			out = append(out, Diagnostic{
				Analyzer: "ispnvet", Pos: ann.pos,
				Message: fmt.Sprintf("stale ispnvet:allow %s: no %s diagnostic on this or the next line; delete the annotation", ann.analyzer, ann.analyzer),
			})
		}
	}
	return out
}

func knownNames(known map[string]bool) string {
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// RunPackage applies every analyzer to one loaded package and returns the
// findings, including allow-annotation hygiene diagnostics (malformed,
// unknown-analyzer, missing-justification, stale).
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	u := &unit{allows: buildAllowIndex(pkg.Fset, pkg.Files, known)}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Path:     pkg.Path,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			unit:     u,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	u.diags = append(u.diags, u.allows.broken...)
	u.diags = append(u.diags, u.allows.stale()...)
	SortDiagnostics(u.diags)
	return u.diags, nil
}

// SortDiagnostics orders findings by file, line, column, analyzer — the
// stable order they print in.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// pathIn reports whether importPath is exactly one of the given packages.
// Analyzers use it to scope rules: path matching is done against the slash
// suffix so analysistest fixtures (rooted at a testdata GOPATH) behave like
// the real tree.
func pathIn(importPath string, pkgs []string) bool {
	for _, p := range pkgs {
		if importPath == p || strings.HasSuffix(importPath, "/"+p) {
			return true
		}
	}
	return false
}

// isIspnInternal reports whether the path is (or mimics, under testdata) a
// package below ispn/internal.
func isIspnInternal(importPath string) bool {
	return strings.HasPrefix(importPath, "ispn/internal/") ||
		strings.Contains(importPath, "/ispn/internal/")
}
