package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestNoSecondWorldBuilder keeps one way to build a world: the scenario
// compiler. Outside internal/core, internal/scenario and the root facade no
// non-test file of the module calls core.New, and outside internal/core none
// calls topology.NewNetwork. A study that needs a network generates a .ispn
// cell and compiles it (experiments.compileCell), so the invariant oracle,
// sharding and the compiler's checks reach it.
func TestNoSecondWorldBuilder(t *testing.T) {
	const root = "../.." // the module root
	rules := []struct {
		pkg, fn string
		allowed []string // directories, relative to the root, whose files may call it
	}{
		{"ispn/internal/core", "New", []string{".", "internal/core", "internal/scenario"}},
		{"ispn/internal/topology", "NewNetwork", []string{"internal/core"}},
	}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			// testdata holds fixtures, and a directory with its own go.mod
			// (bench/) is another module.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		imports := map[string]string{} // local name -> import path
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = p
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		dir = filepath.ToSlash(dir)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			for _, r := range rules {
				if imports[x.Name] == r.pkg && sel.Sel.Name == r.fn && !slices.Contains(r.allowed, dir) {
					t.Errorf("%s: %s.%s builds a second kind of world; generate a .ispn cell and compile it instead",
						fset.Position(call.Pos()), x.Name, r.fn)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatalf("found no Go files under the module root; the test is looking in the wrong place")
	}
}
