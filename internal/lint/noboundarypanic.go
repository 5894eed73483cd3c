package lint

import (
	"go/ast"
	"go/types"
)

// NoBoundaryPanic forbids panic calls inside the exported entry points of
// the library-boundary packages (sim, federation, cluster): an
// event-loop callback that panics goes straight through cluster.Run into the
// caller's frame, and the repo's contract is that every public entry returns
// an error. The check is lexical: any panic
// reachable in the body of an exported function or method (function literals
// included — callbacks defined there run on the caller's goroutine) is
// flagged, unless the declaration guards itself with a deferred recover.
// Unexported helpers may still panic internally if a recovering exported
// wrapper owns them — that indirection is the caller-visible contract this
// analyzer protects.
var NoBoundaryPanic = &Analyzer{
	Name: "noboundarypanic",
	Doc:  "forbid panics escaping exported entry points of library-boundary packages",
	Run: func(pass *Pass) {
		if !boundaryPkgs[pass.Path()] {
			return
		}
		pass.Walk(func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			if !exportedEntry(fd) || hasRecoverDefer(pass.Info, fd.Body) {
				return true
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				name = recvTypeName(fd) + "." + name
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "panic" {
					return true
				}
				if _, ok := pass.Info.Uses[id].(*types.Builtin); !ok {
					return true
				}
				pass.Reportf(call.Pos(),
					"panic inside exported %s can cross the library boundary: return an error (or recover at the entry point)", name)
				return true
			})
			return true
		})
	},
}

// exportedEntry reports whether fd is part of the public surface: an
// exported function, or an exported method on an exported receiver type.
func exportedEntry(fd *ast.FuncDecl) bool {
	if !fd.Name.IsExported() {
		return false
	}
	if fd.Recv == nil {
		return true
	}
	return ast.IsExported(recvTypeName(fd))
}

// recvTypeName extracts the receiver's base type name.
func recvTypeName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// hasRecoverDefer reports whether body directly defers a function literal
// that calls recover() — the blessed boundary-guard pattern.
func hasRecoverDefer(info *types.Info, body *ast.BlockStmt) bool {
	for _, st := range body.List {
		ds, ok := st.(*ast.DeferStmt)
		if !ok {
			continue
		}
		lit, ok := ds.Call.Fun.(*ast.FuncLit)
		if !ok {
			continue
		}
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" {
				if _, ok := info.Uses[id].(*types.Builtin); ok {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
