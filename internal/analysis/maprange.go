package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// mapRangePackages are the deterministic-simulation packages where an
// unsorted `range` over a map silently breaks the parallel-matches-
// sequential and byte-identical-report disciplines: one map iteration in a
// report builder, partitioner, or scheduler and two runs of the same seed
// stop agreeing.
var mapRangePackages = []string{
	"ispn/internal/core",
	"ispn/internal/sim",
	"ispn/internal/sched",
	"ispn/internal/routing",
	"ispn/internal/scenario",
	"ispn/internal/topology",
	"ispn/internal/admission",
	"ispn/internal/invariant",
	"ispn/internal/experiments",
}

// MapRange flags `range` statements over map types in the deterministic
// simulation packages. Three iteration shapes are recognized as order-
// independent and allowed without annotation:
//
//   - collect-then-sort: every statement in the body appends to a local
//     slice, and the first statement after the loop that mentions each
//     such slice sorts it — a call into package sort or a slices.Sort*
//     function with the slice as its first argument (the invariant
//     Oracle.Totals idiom: gather keys, sort right after the loop); an
//     empty body is the degenerate case and observes nothing;
//   - keyed fill: the body is exactly dst[k] = expr with k the range key —
//     distinct keys make the writes commute (expr must be call-free);
//   - integer reduce: every statement accumulates into integer variables
//     with += or ++/-- (integer addition commutes; float accumulation does
//     not and stays flagged).
//
// Anything else needs sorted iteration or an
// `//ispnvet:allow maprange: <justification>` explaining why order cannot
// reach simulation state or report bytes. A loop that deletes every key is
// flagged too: clear(m) says the same in one call.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "flag nondeterministic map iteration in deterministic simulation packages",
	Run:  runMapRange,
}

func runMapRange(pass *Pass) error {
	if !pathIn(pass.Path, mapRangePackages) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt // a range statement is always in one of these, so what follows it is known
			switch b := n.(type) {
			case *ast.BlockStmt:
				list = b.List
			case *ast.CaseClause:
				list = b.Body
			case *ast.CommClause:
				list = b.Body
			}
			for i, st := range list {
				if l, ok := st.(*ast.LabeledStmt); ok {
					st = l.Stmt
				}
				if rs, ok := st.(*ast.RangeStmt); ok {
					checkMapRange(pass, rs, list[i+1:])
				}
			}
			return true
		})
	}
	return nil
}

// checkMapRange reports rs if it ranges over a map in none of the
// sanctioned order-independent shapes; after is what follows it.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, after []ast.Stmt) {
	tv, ok := pass.Info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if collectBody(rs) {
		for _, st := range rs.Body.List {
			dst := st.(*ast.AssignStmt).Lhs[0]
			if id, ok := dst.(*ast.Ident); !ok || !sortedFirst(pass, pass.Info.ObjectOf(id), after) {
				pass.Reportf(rs.Pos(), "range over map %s collects %s in nondeterministic order and does not sort it before its next use; sort it right after the loop (slices.Sort*, sort.*), or justify with //ispnvet:allow maprange: <why>", types.ExprString(rs.X), types.ExprString(dst))
				return
			}
		}
		return
	}
	if !keyedFillBody(rs) && !reduceBody(pass, rs) {
		pass.Reportf(rs.Pos(), "range over map %s iterates in nondeterministic order; collect and sort the keys first (see invariant.(*Oracle).Totals), or justify with //ispnvet:allow maprange: <why>", types.ExprString(rs.X))
	}
}

// sortedFirst reports whether the first of stmts that mentions obj sorts
// it: a call into package sort, or to a slices.Sort* function, whose first
// argument mentions obj.
func sortedFirst(pass *Pass, obj types.Object, stmts []ast.Stmt) bool {
	mentions := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
				found = true
			}
			return !found
		})
		return found
	}
	var fn *types.Func
	if i := slices.IndexFunc(stmts, func(st ast.Stmt) bool { return mentions(st) }); i >= 0 {
		if es, ok := stmts[i].(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok && len(call.Args) > 0 && mentions(call.Args[0]) {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					fn, _ = pass.Info.Uses[sel.Sel].(*types.Func)
				}
			}
		}
	}
	return fn != nil && (fn.Pkg().Path() == "sort" || fn.Pkg().Path() == "slices" && strings.HasPrefix(fn.Name(), "Sort"))
}

// collectBody: every statement appends to a slice (collect-then-sort). An
// empty body has no statement that is not an append.
func collectBody(rs *ast.RangeStmt) bool {
	for _, st := range rs.Body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false
		}
	}
	return true
}

// keyedFillBody: the body is exactly `dst[k] = expr` with k the range key —
// each distinct key is written once, so the writes commute under any
// iteration order. The RHS must be call-free: a call could observe or
// mutate shared state in iteration order.
func keyedFillBody(rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || !indexedByKey(as.Lhs[0], rs.Key) {
		return false
	}
	callFree := true
	ast.Inspect(as.Rhs[0], func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			callFree = false
		}
		return callFree
	})
	return callFree
}

// indexedByKey reports whether e is dst[k] with k the named range key.
func indexedByKey(e, key ast.Expr) bool {
	idx, isIndex := e.(*ast.IndexExpr)
	k, isKey := key.(*ast.Ident)
	return isIndex && isKey && k.Name != "_" && types.ExprString(idx.Index) == k.Name
}

// reduceBody: every statement accumulates into an integer variable with +=
// or ++/--. Integer addition commutes, so the final sums are identical
// under any iteration order; float accumulation rounds differently per
// order and is deliberately NOT recognized.
func reduceBody(pass *Pass, rs *ast.RangeStmt) bool {
	isInt := func(e ast.Expr) bool {
		tv, ok := pass.Info.Types[e]
		if !ok || tv.Type == nil {
			return false
		}
		b, ok := tv.Type.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsInteger != 0
	}
	for _, st := range rs.Body.List {
		switch s := st.(type) {
		case *ast.AssignStmt:
			if s.Tok != token.ADD_ASSIGN || len(s.Lhs) != 1 || !isInt(s.Lhs[0]) {
				return false
			}
		case *ast.IncDecStmt:
			if !isInt(s.X) {
				return false
			}
		default:
			return false
		}
	}
	return true
}
