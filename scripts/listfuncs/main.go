// Command listfuncs prints every function and method declared in the
// non-test files of the module's non-main packages, one per line, spelled
// the way `go tool nm` spells a linked symbol with its type arguments
// stripped, then where it is declared:
// "ispn/internal/sched.(*FIFO).Enqueue internal/sched/sched.go:71".
// scripts/unreached.sh counts every function on this list that no
// coverage-built binary carries as never run, so a package no binary imports
// cannot hide from the census.
//
// With "blocks", it reads a merged `go tool covdata textfmt` profile instead
// and prints the blocks the branch census gates on (see listBlocks).
//
// usage: listfuncs <module-root> <module-path>
//
//	listfuncs blocks <module-root> <module-path> <textfmt-profile> <allowlist>
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
)

func main() {
	var err error
	switch a := os.Args[1:]; {
	case len(a) == 2:
		err = list(a[0], a[1])
	case len(a) == 5 && a[0] == "blocks":
		err = listBlocks(a[1], a[2], a[3], a[4])
	default:
		fmt.Fprintln(os.Stderr, "usage: listfuncs <module-root> <module-path>\n       listfuncs blocks <module-root> <module-path> <textfmt-profile> <allowlist>")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "listfuncs:", err)
		os.Exit(1)
	}
}

func list(root, module string) error {
	fset := token.NewFileSet()
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench is a module of its own and testdata holds fixtures;
			// neither is part of what the binaries are built from.
			if rel == "bench" || d.Name() == "testdata" || rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(rel)))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			// nm numbers inits (init.0) and a bodyless declaration has no
			// symbol of its own.
			if !ok || fn.Body == nil || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			fmt.Printf("%s.%s%s %s:%d\n", pkg, receiver(fn), fn.Name.Name, filepath.ToSlash(rel), fset.Position(fn.Pos()).Line)
		}
		return nil
	})
}

// receiver renders a method's receiver as nm does — "(*T)." or "T." — with
// any type parameters dropped; a plain function has none.
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t, ptr := fn.Recv.List[0].Type, false
	if s, ok := t.(*ast.StarExpr); ok {
		t, ptr = s.X, true
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	name := t.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")."
	}
	return name + "."
}
