package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// SealedFloat enforces the seal-fold discipline on the simulator's
// order-sensitive float accumulators. Floating-point addition is not
// associative: the sharded mode stays bit-identical to sequential only
// because every term enters an open sub-accumulator in event order and run
// totals are folded exclusively by the seal replay in merge.go. A `+=` on
// one of these fields anywhere else — a shard-local partial sum, a "quick"
// correction in the reconciliation path — regroups the fold and diverges by
// an ULP on some workload; that exact class (UsedSlotSec, which the shard
// fuzzer found at runtime) is what this analyzer rejects at compile time. Any
// write counts, not just accumulation: a reset or carry outside the blessed
// files desynchronizes the seal positions just as surely.
var SealedFloat = &Analyzer{
	Name: "sealedfloat",
	Doc:  "restrict writes to order-sensitive float accumulators to the seal-fold files",
	Run: func(pass *Pass) {
		var specs []sealedSpec
		for _, s := range sealedSpecs {
			if s.pkg == pass.Path() {
				specs = append(specs, s)
			}
		}
		if len(specs) == 0 {
			return
		}
		checkLHS := func(e ast.Expr, pos token.Pos) {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return
			}
			owner, field, ok := namedField(pass.Info, sel)
			if !ok {
				return
			}
			for _, s := range specs {
				if !s.fields[field] || owner.Obj().Name() != s.typ ||
					owner.Obj().Pkg() == nil || owner.Obj().Pkg().Path() != s.pkg {
					continue
				}
				if s.allowed[pass.File(pos)] {
					continue
				}
				pass.Reportf(pos,
					"%s.%s is an order-sensitive accumulator: writes are allowed only in %s (seal-fold discipline; see merge.go)",
					s.typ, field, fileList(s.allowed))
			}
		}
		pass.Walk(func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkLHS(lhs, n.TokPos)
				}
			case *ast.IncDecStmt:
				checkLHS(n.X, n.TokPos)
			}
			return true
		})
	},
}

// fileList formats an allowed-files set for a message, deterministically.
func fileList(files map[string]bool) string {
	ks := make([]string, 0, len(files))
	for k := range files {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, ", ")
}
