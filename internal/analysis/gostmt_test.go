package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestSimulationCoreHasNoGoStatements pins the simulation core as
// single-threaded: outside internal/serve (the session actors) and
// internal/experiments (the fan-out of independent runs), no non-test file
// under internal/ starts a goroutine. A run is one event heap, so nothing
// below the runners needs locks, channels or the race detector to be
// correct.
func TestSimulationCoreHasNoGoStatements(t *testing.T) {
	const root = ".." // internal/
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch rel, _ := filepath.Rel(root, path); rel {
			case "serve", "experiments":
				return filepath.SkipDir
			}
			if d.Name() == "testdata" {
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
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement in the simulation core", fset.Position(g.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatalf("found no Go files under internal/; the test is looking in the wrong place")
	}
}
