package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PoolOwnership enforces the packet.Pool ownership discipline (see the
// internal/packet package comment): a *packet.Packet obtained from Pool.Get
// or drawn out of a queue by a Dequeue method is owned by the function that
// holds it, and ownership must leave on every path — Release/Put it,
// forward it (any call taking the packet), enqueue/store/send it, or return
// it to the caller.
//
// The check is lexical, not path-sensitive: it flags packets that are
// acquired and then never consumed anywhere in the function (including a
// discarded Dequeue/Get result). Branch-dependent leaks remain the job of
// the runtime pool-leak invariant (internal/invariant, docs/TESTING.md);
// this analyzer catches the review-time shape of PR 5's flush leak, where a
// drain loop dropped packets with no Release at all.
//
// Test files are exempt: tests routinely dequeue literal packets (never
// pool-owned) just to assert on their fields, and the runtime conservation
// oracle already covers pool balance wherever a test runs a real pool.
var PoolOwnership = &Analyzer{
	Name: "poolownership",
	Doc:  "require every acquired *packet.Packet to be released, forwarded, stored, or returned",
	Run:  runPoolOwnership,
}

func runPoolOwnership(pass *Pass) error {
	if !isIspnInternal(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkPoolFunc(pass, fn)
		}
	}
	return nil
}

func checkPoolFunc(pass *Pass, fn *ast.FuncDecl) {
	parents := buildParents(fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		what := acquireKind(pass, call)
		if what == "" {
			return true
		}
		switch p := unparenParent(parents, call).(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "%s result is dropped: the packet leaks from its pool; Release it, forward it, or store it", what)
		case *ast.AssignStmt:
			if len(p.Rhs) != 1 || ast.Unparen(p.Rhs[0]) != ast.Expr(call) {
				return true // multi-value or nested; treat as consumed
			}
			for _, lhs := range p.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue // stored straight into a field/element: consumed
				}
				if id.Name == "_" {
					pass.Reportf(call.Pos(), "%s result is assigned to _: the packet leaks from its pool; Release it instead", what)
					continue
				}
				if !packetConsumed(pass, fn, parents, pass.Info.ObjectOf(id), id) {
					pass.Reportf(call.Pos(), "packet from %s is never released, forwarded, stored, or returned in %s; every ownership path must end in packet.Release, Pool.Put, or a handoff", what, fn.Name.Name)
				}
			}
		}
		return true
	})
}

// acquireKind reports whether call transfers packet ownership into the
// calling function: "" if not, otherwise a description for diagnostics.
func acquireKind(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s, ok := pass.Info.Selections[sel]
	if !ok {
		return ""
	}
	fnObj, ok := s.Obj().(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fnObj.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return ""
	}
	switch fnObj.Name() {
	case "Get":
		if namedTypeIs(s.Recv(), "Pool", "internal/packet") {
			return "Pool.Get"
		}
	case "Dequeue":
		if namedTypeIs(sig.Results().At(0).Type(), "Packet", "internal/packet") {
			return "Dequeue"
		}
	}
	return ""
}

// packetConsumed reports whether obj (a packet-holding variable) has any
// consuming use in fn: passed to a call, returned, sent on a channel,
// placed in a composite literal, or on the right-hand side of an
// assignment (stored or aliased — aliases are conservatively trusted).
// Field reads, comparisons, and the defining assignment itself do not
// count.
func packetConsumed(pass *Pass, fn *ast.FuncDecl, parents map[ast.Node]ast.Node, obj types.Object, defSite *ast.Ident) bool {
	consumed := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if consumed {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || id == defSite || pass.Info.Uses[id] != obj {
			return true
		}
		switch p := unparenParent(parents, id).(type) {
		case *ast.CallExpr:
			for _, arg := range p.Args {
				if ast.Unparen(arg) == ast.Expr(id) {
					consumed = true
				}
			}
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
			// A packet is never a channel, so in a send it is the value.
			consumed = true
		case *ast.AssignStmt:
			for _, rhs := range p.Rhs {
				if ast.Unparen(rhs) == ast.Expr(id) {
					consumed = true
				}
			}
		}
		return true
	})
	return consumed
}

// buildParents maps every node in root to its parent.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// unparenParent returns n's nearest non-paren ancestor.
func unparenParent(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	p := parents[n]
	for {
		if pe, ok := p.(*ast.ParenExpr); ok {
			p = parents[pe]
			continue
		}
		return p
	}
}

// namedTypeIs matches a (possibly pointer) named type by name and package-
// path suffix.
func namedTypeIs(t types.Type, name, pkgSuffix string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name && named.Obj().Pkg() != nil &&
		strings.HasSuffix(named.Obj().Pkg().Path(), pkgSuffix)
}
