package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ReportNil enforces the report-stability discipline in internal/scenario:
// the optional sections of a Report (its pointer-typed fields — admission,
// routing, route-cache, invariant-check totals) are nil when the feature is
// off, which is exactly what keeps old reports byte-identical when a new
// feature ships. Any code that reads *through* such a section pointer must
// therefore be dominated by a nil check; an unguarded read either panics on
// legacy scenarios or tempts a printer into emitting a section
// unconditionally.
//
// The analyzer tracks the common guard shapes: `if X != nil { ... }`
// (including && chains and `if v := X; v != nil`), early exits
// (`if X == nil { return }`, t.Fatal and friends), and aliases assigned
// from a guarded expression. Nothing else draws a fact: not `nil != X`, not
// a panic, and not a guard or alias inside a bare block, a labeled
// statement, a select or a switch's init statement, so a read only those
// would guard is flagged.
var ReportNil = &Analyzer{
	Name: "reportnil",
	Doc:  "require nil guards around optional report-section pointers in internal/scenario",
	Run:  runReportNil,
}

func runReportNil(pass *Pass) error {
	if !pathIn(pass.Path, []string{"ispn/internal/scenario"}) {
		return nil
	}
	sections := optionalSectionTypes(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			w := &nilGuardWalker{pass: pass, sections: sections}
			// A method on a section type may trust its own receiver: the
			// guard obligation sits with the caller selecting the method
			// through the optional field.
			if fn.Recv != nil && len(fn.Recv.List) == 1 && len(fn.Recv.List[0].Names) == 1 {
				if isSectionType(fn.Recv.List[0].Type, pass, sections) {
					w.exempt = fn.Recv.List[0].Names[0].Name
				}
			}
			w.block(fn.Body.List, guards{})
		}
	}
	return nil
}

// optionalSectionTypes collects the named struct types that Report exposes
// through pointer fields.
func optionalSectionTypes(pass *Pass) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	obj, ok := pass.Pkg.Scope().Lookup("Report").(*types.TypeName)
	if !ok {
		return out
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return out
	}
	for i := 0; i < st.NumFields(); i++ {
		if ptr, ok := st.Field(i).Type().(*types.Pointer); ok {
			if named, ok := ptr.Elem().(*types.Named); ok {
				out[named.Obj()] = true
			}
		}
	}
	return out
}

func isSectionType(expr ast.Expr, pass *Pass, sections map[*types.TypeName]bool) bool {
	return sectionPointee(pass.Info.TypeOf(expr), sections) != nil
}

// sectionPointee returns the section TypeName if t is a pointer to one (t
// may be nil: an expression without a type is no section).
func sectionPointee(t types.Type, sections map[*types.TypeName]bool) *types.TypeName {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return nil
	}
	if named, ok := ptr.Elem().(*types.Named); ok && sections[named.Obj()] {
		return named.Obj()
	}
	return nil
}

// guards is the set of expressions (by printed form) known non-nil here.
type guards map[string]bool

func (g guards) with(keys ...string) guards {
	out := make(guards, len(g)+len(keys))
	for k := range g {
		out[k] = true
	}
	for _, k := range keys {
		if k != "" {
			out[k] = true
		}
	}
	return out
}

type nilGuardWalker struct {
	pass     *Pass
	sections map[*types.TypeName]bool
	exempt   string // receiver name trusted non-nil inside section methods
}

// block walks a statement list, threading guard facts forward: an
// early-exit nil check adds its facts to every following statement.
func (w *nilGuardWalker) block(stmts []ast.Stmt, g guards) {
	for _, st := range stmts {
		if ifs, ok := st.(*ast.IfStmt); ok {
			g = w.ifStmt(ifs, g)
			continue
		}
		w.stmt(st, g)
		g = w.afterStmt(st, g)
	}
}

// afterStmt propagates aliasing: `v := X` with X guarded makes v guarded.
func (w *nilGuardWalker) afterStmt(st ast.Stmt, g guards) guards {
	as, ok := st.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != len(as.Rhs) {
		return g
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		if g[types.ExprString(as.Rhs[i])] || w.isExemptIdent(as.Rhs[i]) {
			g = g.with(id.Name)
		}
	}
	return g
}

// ifStmt walks an if statement and returns the guard set holding *after*
// it (stronger when a nil-check branch always exits).
func (w *nilGuardWalker) ifStmt(ifs *ast.IfStmt, g guards) guards {
	if ifs.Init != nil {
		w.stmt(ifs.Init, g)
		g = w.afterStmt(ifs.Init, g)
	}
	w.cond(ifs.Cond, g)
	nonNil := nonNilFacts(ifs.Cond)
	nilIf := nilFacts(ifs.Cond)
	w.block(ifs.Body.List, g.with(nonNil...))
	switch e := ifs.Else.(type) {
	case *ast.BlockStmt:
		w.block(e.List, g.with(nilIf...))
	case *ast.IfStmt:
		w.ifStmt(e, g.with(nilIf...))
	}
	if len(nilIf) > 0 && terminates(ifs.Body) {
		return g.with(nilIf...) // `if X == nil { return }`: X non-nil below
	}
	return g
}

// cond walks a boolean condition threading short-circuit facts: in
// `X != nil && Y`, Y may assume X is non-nil; in `X == nil || Y`, Y runs
// only when X is non-nil.
func (w *nilGuardWalker) cond(e ast.Expr, g guards) {
	if e == nil {
		return
	}
	be, ok := unparen(e).(*ast.BinaryExpr)
	if !ok {
		w.expr(e, g)
		return
	}
	switch be.Op {
	case token.LAND:
		w.cond(be.X, g)
		w.cond(be.Y, g.with(nonNilFacts(be.X)...))
	case token.LOR:
		w.cond(be.X, g)
		w.cond(be.Y, g.with(nilFacts(be.X)...))
	default:
		w.expr(e, g)
	}
}

// stmt dispatches into nested statements, checking contained expressions.
// Loops, switches and assignments thread guard facts; any other statement
// has every selection inside it checked under the guards known before it,
// so nothing it nests adds a fact.
func (w *nilGuardWalker) stmt(st ast.Stmt, g guards) {
	switch s := st.(type) {
	case *ast.ForStmt:
		w.stmt(s.Init, g)
		if s.Init != nil {
			g = w.afterStmt(s.Init, g)
		}
		w.cond(s.Cond, g)
		cg := g.with(nonNilFacts(s.Cond)...)
		w.stmt(s.Post, cg)
		w.block(s.Body.List, cg)
	case *ast.RangeStmt:
		w.expr(s.X, g)
		w.block(s.Body.List, g)
	case *ast.SwitchStmt:
		w.stmt(s.Init, g)
		w.expr(s.Tag, g)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			cg := g
			for _, e := range cc.List {
				w.expr(e, g)
				cg = cg.with(nonNilFacts(e)...)
			}
			w.block(cc.Body, cg)
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, g)
		w.stmt(s.Assign, g)
		for _, c := range s.Body.List {
			w.block(c.(*ast.CaseClause).Body, g)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, g)
		}
		for _, e := range s.Lhs {
			w.lhs(e, g)
		}
	default:
		w.expr(st, g)
	}
}

// lhs checks an assignment target: writing *to* a section field
// (r.Check = ...) is how builders install sections and is always fine, but
// an index/selector reached *through* a section pointer still needs the
// guard, so descend into the base expression.
func (w *nilGuardWalker) lhs(e ast.Expr, g guards) {
	switch t := e.(type) {
	case *ast.SelectorExpr:
		w.checkThrough(t, g)
		w.expr(t.X, g)
	case *ast.IndexExpr:
		w.expr(t.X, g)
		w.expr(t.Index, g)
	case *ast.StarExpr:
		w.expr(t.X, g)
	}
}

// expr flags any selection through an unguarded optional-section pointer
// inside e, an expression or a statement.
func (w *nilGuardWalker) expr(e ast.Node, g guards) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			// A closure may run later; walk it with only the exempt
			// receiver fact, not flow-sensitive guards.
			w.block(fl.Body.List, guards{})
			return false
		}
		if be, ok := n.(*ast.BinaryExpr); ok && (be.Op == token.LAND || be.Op == token.LOR) {
			// Short-circuit chains guard their own right-hand sides
			// (`r.X != nil && r.X.F > 0`) wherever they appear.
			w.cond(be, g)
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			w.checkThrough(sel, g)
		}
		return true
	})
}

// checkThrough reports sel if it selects through a pointer to an optional
// section type that no dominating nil check covers.
func (w *nilGuardWalker) checkThrough(sel *ast.SelectorExpr, g guards) {
	section := sectionPointee(w.pass.Info.TypeOf(sel.X), w.sections)
	if section == nil {
		return
	}
	if g[types.ExprString(sel.X)] || w.isExemptIdent(sel.X) {
		return
	}
	w.pass.Reportf(sel.Pos(), "%s reads through optional report section %s (*%s) without a nil guard; absent features must keep old reports byte-identical — wrap in `if %s != nil`", types.ExprString(sel), types.ExprString(sel.X), section.Name(), types.ExprString(sel.X))
}

func (w *nilGuardWalker) isExemptIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && w.exempt != "" && id.Name == w.exempt
}

// nonNilFacts extracts expressions proven non-nil when cond is true
// (conjunctions of `X != nil`).
func nonNilFacts(cond ast.Expr) []string {
	var out []string
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		be, ok := unparen(e).(*ast.BinaryExpr)
		if !ok {
			return
		}
		switch be.Op {
		case token.LAND:
			walk(be.X)
			walk(be.Y)
		case token.NEQ:
			if x := nilComparand(be); x != "" {
				out = append(out, x)
			}
		}
	}
	walk(cond)
	return out
}

// nilFacts extracts expressions proven non-nil when cond is FALSE
// (disjunctions of `X == nil`): used for `if X == nil { exit }` and for
// else-branches.
func nilFacts(cond ast.Expr) []string {
	var out []string
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		be, ok := unparen(e).(*ast.BinaryExpr)
		if !ok {
			return
		}
		switch be.Op {
		case token.LOR:
			walk(be.X)
			walk(be.Y)
		case token.EQL:
			if x := nilComparand(be); x != "" {
				out = append(out, x)
			}
		}
	}
	walk(cond)
	return out
}

// nilComparand returns the printed non-nil side of a comparison with nil.
// Only x == nil and x != nil count: nil == x draws no fact, so a read it
// guards is flagged.
func nilComparand(be *ast.BinaryExpr) string {
	if isNilIdent(be.Y) {
		return types.ExprString(unparen(be.X))
	}
	return ""
}

func isNilIdent(e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// terminates reports whether a block always leaves the enclosing scope:
// return, branch, os.Exit, or a testing Fatal/Skip helper. A block ending
// in panic does not count, so a read after `if X == nil { panic(...) }` is
// flagged.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if fun, ok := call.Fun.(*ast.SelectorExpr); ok {
				switch fun.Sel.Name {
				case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow", "Exit", "Fail":
					return true
				}
			}
		}
	}
	return false
}
