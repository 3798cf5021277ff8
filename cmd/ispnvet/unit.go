package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"ispn/internal/analysis"
)

// vetConfig is the JSON configuration cmd/go writes for each vet unit (the
// fields ispnvet consumes; unknown fields are ignored). It mirrors
// golang.org/x/tools/go/analysis/unitchecker.Config, which is the contract
// `go vet -vettool` speaks.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitMain analyzes one package unit per the vettool protocol: typecheck
// the unit's files against the export data go vet supplies, run the suite,
// print findings to stderr, and exit 2 when there are any. The vetx facts
// file must exist afterwards even though ispnvet exchanges no facts.
func unitMain(cfgPath string) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fatalf("reading config: %v", err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatalf("parsing %s: %v", cfgPath, err)
	}
	writeVetx(cfg.VetxOutput)
	// Dependency-only invocations exist to produce facts; ispnvet has none.
	// Synthesized test mains (path ending ".test") carry no repo code.
	if cfg.VetxOnly || strings.HasSuffix(cfg.ImportPath, ".test") {
		return
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return
			}
			fatalf("%v", err)
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := &unitImporter{cfg: &cfg}
	imp.under = importer.ForCompiler(fset, compiler, imp.lookup)
	info := analysis.NewInfo()
	conf := types.Config{Importer: imp, GoVersion: cfg.GoVersion, Error: func(error) {}}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return
		}
		fatalf("type-checking %s: %v", cfg.ImportPath, err)
	}

	pkg := &analysis.Package{
		Path:  scopePath(cfg.ImportPath),
		Dir:   cfg.Dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	diags, err := analysis.RunPackage(pkg, analysis.Analyzers)
	if err != nil {
		fatalf("%v", err)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

// scopePath strips go vet's test-variant decoration
// ("pkg [pkg.test]" → "pkg") so analyzer scoping sees the directory path.
func scopePath(importPath string) string {
	if i := strings.Index(importPath, " ["); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

// unitImporter resolves imports through the config's ImportMap (source
// spelling → canonical path) and PackageFile (canonical path → export
// data) tables.
type unitImporter struct {
	cfg   *vetConfig
	under types.Importer
}

func (u *unitImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if mapped, ok := u.cfg.ImportMap[path]; ok {
		path = mapped
	}
	return u.under.Import(path)
}

func (u *unitImporter) lookup(path string) (io.ReadCloser, error) {
	file := u.cfg.PackageFile[path]
	if file == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}

// writeVetx leaves an (empty) facts file where go vet expects one, keeping
// the build-cache bookkeeping happy.
func writeVetx(path string) {
	if path == "" {
		return
	}
	if err := os.WriteFile(path, nil, 0o666); err != nil {
		fatalf("writing vetx: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ispnvet: "+format+"\n", args...)
	os.Exit(1)
}
