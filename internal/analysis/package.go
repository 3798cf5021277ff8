package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Package is one loaded, type-checked analysis unit, as the two loaders
// build it: cmd/ispnvet from the unit go vet hands it, the analyzer tests from a
// fixture directory. In-package test files are checked together with the
// package proper (the same build unit `go test` compiles); go vet presents an
// external _test package as its own unit, whose Path still reports the
// directory's import path, so analyzer scoping sees test helpers too.
type Package struct {
	Path  string // import path used for analyzer scoping
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info with every map the analyzers read populated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}
