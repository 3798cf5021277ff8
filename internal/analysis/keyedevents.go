package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// controlPlanePackages hold code that intervenes in a running simulation —
// timeline verbs, churn arrivals, oracle sweeps, experiment interventions,
// HTTP-injected events. There even *relative* unkeyed scheduling
// (Schedule/ScheduleCall) is flagged: every intervention must carry control
// ordering (AtControl) or an explicit canonical key (AtCallKeyed), or a
// sharded run executes it in a different same-instant position than a
// sequential one.
var controlPlanePackages = []string{
	"ispn/internal/scenario",
	"ispn/internal/core",
	"ispn/internal/admission",
	"ispn/internal/routing",
	"ispn/internal/invariant",
	"ispn/internal/experiments",
	"ispn/internal/fuzz",
	"ispn/internal/serve",
}

// KeyedEvents enforces PR 6's canonical same-instant event keys. Outside
// internal/sim, absolute-time unkeyed scheduling (Engine.At, Engine.AtCall)
// is always flagged — an absolute-time event competes with whatever else
// lands on that instant, and only AtControl/AtCallKeyed pin where it sorts.
// In control-plane packages the relative forms (Schedule, ScheduleCall) are
// flagged too. Data-plane self-ticks (a source rescheduling itself with
// Schedule during its own event) keep their insertion-order key in both
// modes and stay legal.
var KeyedEvents = &Analyzer{
	Name: "keyedevents",
	Doc:  "require canonical same-instant keys (AtControl/AtCallKeyed) for engine scheduling outside internal/sim",
	Run:  runKeyedEvents,
}

func runKeyedEvents(pass *Pass) error {
	if !isIspnInternal(pass.Path) || pathIn(pass.Path, []string{"ispn/internal/sim"}) {
		return nil
	}
	strict := pathIn(pass.Path, controlPlanePackages)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !isEngineMethod(pass, sel) {
				return true
			}
			switch sel.Sel.Name {
			case "At", "AtCall":
				pass.Reportf(call.Pos(), "unkeyed absolute-time %s on sim.Engine outside internal/sim: same-instant ordering is undefined across sharded vs sequential runs; use AtControl (interventions) or AtCallKeyed (data deliveries), or justify with //ispnvet:allow keyedevents: <why>", sel.Sel.Name)
			case "Schedule", "ScheduleCall":
				if strict {
					pass.Reportf(call.Pos(), "unkeyed %s from a control-plane package: interventions must use AtControl/AtCallKeyed so sharded runs replay the sequential same-instant order, or justify with //ispnvet:allow keyedevents: <why>", sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}

// isEngineMethod reports whether sel selects a method on sim.Engine (by
// name and package-path suffix, so the test fixtures stubbing
// ispn/internal/sim behave like the real package).
func isEngineMethod(pass *Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.Info.Selections[sel]
	if !ok {
		return false
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Engine" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/sim")
}
