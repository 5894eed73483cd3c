package lint

import (
	"go/ast"
	"go/types"
)

// RingLogOnly keeps the decision log single-sourced: core.Decision records
// are constructed, and the logRing mutated, only by the append paths in
// core's log.go (record, recordCapacity, logRing.add, MergeLogs). The ring
// is the audit trail the conformance streams serialize — a Decision built or
// injected anywhere else bypasses the EnableLog gate, the ring bound, and
// the tnow timestamp discipline, so replay diffs would compare streams that
// no scheduler actually emitted. Inside core the analyzer also fences the
// ring's internals (Scheduler.log and logRing's fields) to log.go. Other
// packages may freely *read* decisions but must not fabricate them — nor
// change one: below its cap Log() hands out the scheduler's ring itself, so
// a write to a Decision's field or to an element of a []core.Decision (an
// assignment, ++/--, or copy into one) is reported there too, outside
// core's log.go.
var RingLogOnly = &Analyzer{
	Name: "ringlogonly",
	Doc:  "decision records flow only through core's logRing append paths in log.go",
	Run: func(pass *Pass) {
		inCore := pass.Path() == corePkg
		if !inCore && !inDeterministic(pass) {
			return
		}
		pass.Walk(func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				tv, ok := pass.Info.Types[n]
				if !ok || !isCoreNamed(tv.Type, "Decision") {
					return true
				}
				if inCore && pass.File(n.Pos()) == ringFile {
					return true
				}
				pass.Reportf(n.Pos(),
					"core.Decision constructed outside %s: decision records must be appended through the logRing paths (Scheduler.record/recordCapacity)", ringFile)
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) == 2 {
					if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "copy" &&
						isDecisionSlice(pass.Info.TypeOf(n.Args[0])) {
						reportDecisionWrite(pass, inCore, n.Args[0], "core.Decision slice elements (copy)")
					}
				}
				if !inCore || pass.File(n.Pos()) == ringFile {
					return true
				}
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "add" {
					return true
				}
				s, ok := pass.Info.Selections[sel]
				if !ok || s.Kind() != types.MethodVal {
					return true
				}
				if isCoreNamed(s.Recv(), "logRing") {
					pass.Reportf(n.Pos(),
						"logRing.add called outside %s: append decisions through Scheduler.record/recordCapacity so the EnableLog gate and timestamps stay uniform", ringFile)
				}
			case *ast.IncDecStmt:
				reportDecisionWrite(pass, inCore, n.X, decisionTarget(pass.Info, n.X))
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					reportDecisionWrite(pass, inCore, lhs, decisionTarget(pass.Info, lhs))
				}
				if !inCore || pass.File(n.Pos()) == ringFile {
					return true
				}
				for _, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					owner, field, ok := namedField(pass.Info, sel)
					if !ok {
						continue
					}
					if owner.Obj().Name() == "logRing" ||
						(owner.Obj().Name() == "Scheduler" && field == "log") {
						pass.Reportf(n.TokPos,
							"write to the decision ring (%s.%s) outside %s: the ring's bound and head bookkeeping live in log.go only", owner.Obj().Name(), field, ringFile)
					}
				}
			}
			return true
		})
	},
}

// decisionTarget names what a write to lhs changes when lhs is a field of a
// core.Decision or an element of a []core.Decision ("" otherwise).
func decisionTarget(info *types.Info, lhs ast.Expr) string {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if owner, field, ok := namedField(info, lhs); ok && isCoreNamed(owner, "Decision") {
			return "core.Decision field " + field
		}
	case *ast.IndexExpr:
		if isDecisionSlice(info.TypeOf(lhs.X)) {
			return "a core.Decision slice element"
		}
	}
	return ""
}

// reportDecisionWrite reports a write to target (what decisionTarget named
// at at), unless it is in core's log.go.
func reportDecisionWrite(pass *Pass, inCore bool, at ast.Expr, target string) {
	if target == "" || (inCore && pass.File(at.Pos()) == ringFile) {
		return
	}
	pass.Reportf(at.Pos(),
		"write to %s outside %s: Log() hands out the scheduler's ring itself, so decisions are read-only", target, ringFile)
}

// isDecisionSlice reports whether t is a slice of core.Decision — what Log()
// returns, and so possibly the scheduler's ring.
func isDecisionSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	return ok && isCoreNamed(s.Elem(), "Decision")
}

// isCoreNamed reports whether t (after pointer/alias unwrapping) is the
// named type core.<name>.
func isCoreNamed(t types.Type, name string) bool {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == corePkg
}
