// Package ctrlfifo guards the two-lane ingress/egress contract (DESIGN.md
// §§6, 11): control packets are FIFO with the data they configure —
// a stream-open must not overtake the close of its predecessor, an epoch
// barrier must not overtake the data it fences. The ONLY control op allowed
// to leave the ordered lane is the periodic telemetry sample (opTelemetry):
// it is lossy-safe and carries no data-plane ordering semantics, so it
// rides the order-free control lane to stay live under data backpressure.
//
// This analyzer finds the order-free fast paths — sends into a ctrl/
// ctrlLane channel and appends onto an egress scheduler's .ctrl lane — and
// requires each to be dominated by a guard that checks for the allowlisted
// op: a call to orderFreeControl(...) or a comparison against opTelemetry
// in an enclosing if/case condition. Routing any other control op through
// these paths would let it overtake the data lane, which is exactly the
// reordering the FIFO contract forbids.
//
// Extending the allowlist is an API decision, not a lint tweak: add the new
// op to orderFreeControl (one chokepoint, every guard inherits it) and to
// the allowlist here, with a DESIGN.md §11 note on why reordering is safe.
package ctrlfifo

import (
	"go/ast"
	"strings"

	"repro/internal/lint"
)

// Analyzer is the ctrlfifo invariant checker.
var Analyzer = &lint.Analyzer{
	Name: "ctrlfifo",
	Doc:  "only allowlisted order-free control (opTelemetry) may bypass the FIFO lanes",
	Run:  run,
}

// allowlist names the idents whose presence in a guard condition authorizes
// the order-free path. orderFreeControl is the chokepoint predicate;
// opTelemetry is the one allowlisted op for direct comparisons.
var allowlist = map[string]bool{
	"orderFreeControl": true,
	"opTelemetry":      true,
}

// ctrlChan reports whether e names an order-free control channel (ctrl,
// ctrlLane, or a selector ending in one).
func ctrlChan(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name == "ctrl" || x.Name == "ctrlLane"
	case *ast.SelectorExpr:
		return x.Sel.Name == "ctrl" || x.Sel.Name == "ctrlLane"
	}
	return false
}

// mentionsAllowed reports whether n references an allowlisted ident.
func mentionsAllowed(n ast.Node) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && allowlist[id.Name] {
			found = true
		}
		return true
	})
	return found
}

// guardStack walks a function body tracking the conditions dominating each
// node: if-conditions (with init), case clauses, and the function's own
// name (a helper named for the allowlisted op — e.g. handleOrderFree,
// relayTelemetry — is itself the guard, checked at its call sites).
func run(pass *lint.Pass) error {
	lint.FuncsOf(pass.Files, func(fd *ast.FuncDecl) {
		// A function whose name marks it as the order-free handler is
		// trusted wholesale: its single caller sits behind the real guard.
		lname := strings.ToLower(fd.Name.Name)
		if strings.Contains(lname, "orderfree") || strings.Contains(lname, "telemetry") {
			return
		}
		check(pass, fd.Body, false)
	})
	return nil
}

// check recursively walks stmts; guarded is true once an enclosing
// condition mentioned the allowlist.
func check(pass *lint.Pass, n ast.Node, guarded bool) {
	if n == nil {
		return
	}
	switch st := n.(type) {
	case *ast.IfStmt:
		check(pass, st.Init, guarded)
		g := guarded || mentionsAllowed(st.Init) || mentionsAllowed(st.Cond)
		check(pass, st.Body, g)
		// The else arm is NOT covered by the then-guard.
		check(pass, st.Else, guarded)
	case *ast.SwitchStmt:
		check(pass, st.Init, guarded)
		tagAllowed := mentionsAllowed(st.Tag)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			g := guarded || (tagAllowed && cc.List != nil) || mentionsAllowed2(cc.List)
			for _, s := range cc.Body {
				check(pass, s, g)
			}
		}
	case *ast.SendStmt:
		if ctrlChan(st.Chan) && !guarded {
			pass.Reportf(st.Pos(), "send into the order-free control lane without an opTelemetry/orderFreeControl guard: non-allowlisted control must stay FIFO with the data lane")
		}
		walkChildren(pass, st, guarded)
	case *ast.AssignStmt:
		// s.ctrl = append(s.ctrl, p) — the scheduler's order-free lane.
		for i, lhs := range st.Lhs {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "ctrl" || i >= len(st.Rhs) {
				continue
			}
			if call, ok := ast.Unparen(st.Rhs[i]).(*ast.CallExpr); ok &&
				lint.CalleeName(call) == "append" && len(call.Args) > 1 && !guarded {
				pass.Reportf(st.Pos(), "append onto the order-free ctrl lane without an opTelemetry/orderFreeControl guard: non-allowlisted control must stay FIFO with the data lane")
			}
		}
		walkChildren(pass, st, guarded)
	case *ast.FuncLit:
		check(pass, st.Body, guarded)
	default:
		walkChildren(pass, n, guarded)
	}
}

// walkChildren recurses into direct children preserving the guard state,
// without re-dispatching on n itself.
func walkChildren(pass *lint.Pass, n ast.Node, guarded bool) {
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if first {
			first = false
			return true
		}
		if m == nil {
			return false
		}
		check(pass, m, guarded)
		return false
	})
}

// mentionsAllowed2 checks a list of expressions.
func mentionsAllowed2(list []ast.Expr) bool {
	for _, e := range list {
		if mentionsAllowed(e) {
			return true
		}
	}
	return false
}
