package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
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
//   - collect-then-sort: every statement in the body is an append (the
//     sortedKeys idiom — gather keys, sort outside the loop);
//   - map clear: the body only deletes the iterated key from the ranged map;
//   - keyed fill: the body is exactly dst[k] = expr with k the range key —
//     distinct keys make the writes commute (expr must be call-free);
//   - integer reduce: every statement accumulates into integer variables
//     with += or ++/-- (integer addition commutes; float accumulation does
//     not and stays flagged).
//
// Anything else needs sorted iteration or an
// `//ispnvet:allow maprange: <justification>` explaining why order cannot
// reach simulation state or report bytes.
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
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if orderIndependentBody(pass, rs) {
				return true
			}
			pass.Reportf(rs.Pos(), "range over map %s iterates in nondeterministic order; collect and sort the keys first (see core.sortedKeys), or justify with //ispnvet:allow maprange: <why>", types.ExprString(rs.X))
			return true
		})
	}
	return nil
}

// orderIndependentBody recognizes the sanctioned map-iteration idioms.
func orderIndependentBody(pass *Pass, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) == 0 {
		return true // an empty body observes nothing
	}
	return collectBody(rs) || clearBody(pass, rs) || keyedFillBody(rs) || reduceBody(pass, rs)
}

// collectBody: every statement appends to a slice (collect-then-sort).
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

// clearBody: every statement is delete(m, k) on the ranged map.
func clearBody(pass *Pass, rs *ast.RangeStmt) bool {
	for _, st := range rs.Body.List {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "delete" {
			return false
		}
		if types.ExprString(call.Args[0]) != types.ExprString(rs.X) {
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
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	idx, ok := as.Lhs[0].(*ast.IndexExpr)
	if !ok {
		return false
	}
	k, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	ki, ok := idx.Index.(*ast.Ident)
	if !ok || ki.Name != k.Name || k.Name == "_" {
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
