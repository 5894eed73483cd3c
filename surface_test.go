package elastichpc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"elastichpc/internal/lint"
)

// calledByName are the methods the standard library reaches through its own
// interfaces (sort, heap, flag, fmt, error, go/types, encoding), so nothing
// in the repository needs to spell them.
var calledByName = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"String": true, "Set": true, "Error": true, "Import": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// benchPinned are the exports that only bench/ reaches, and the fields only
// bench/ sets. bench/ measures every change against its parent with the
// parent's own harness, so it cannot change in the same commit as the code
// it measures; what it calls or sets stays until a benchmark revision drops
// it. Each entry is the bench/ line that calls or sets it.
var benchPinned = map[string]string{
	"core.Scheduler.ExportStateInto": "bench/probes.go:312",
	"core.Scheduler.RestoreState":    "bench/probes.go:313",
	"core.Scheduler.VisitRunning":    "bench/probes.go:269",
	"sim.Simulator.QueuedJobs":       "bench/probes.go:414",
	"metrics.Read":                   "bench/probes.go:589",
	"k8s.ObjectMeta.Namespace":       "bench/probes.go:510",
	"k8s.Store.Update":               "bench/probes.go:530",
}

// TestNoUncalledExports: an exported function or method declared in a
// non-test file under internal/, and every exported method of an interface
// declared there, must be reached by production code — a non-test file
// outside bench/ and testdata/ — and every exported field of an exported
// struct type declared there must be set by it. Tests are not callers: an
// export only a test reaches is deleted (its test moved onto what production
// calls) or unexported into the test's harness, and a field only a test sets
// is a knob with one production value. Everything lives behind internal/, so
// nothing outside the module can be the missing caller.
func TestNoUncalledExports(t *testing.T) {
	problems, err := uncalledExports(".", benchPinned)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestNoUncalledExportsFailsWhenItShould plants, in a copy of the module, an
// export only a test names, one only bench/ names, a method only a test
// calls whose name production calls on another type, and a field only a
// test sets; and adds three benchPinned entries that pin nothing — one names
// no export, one an export production reaches, one a field production sets.
// It requires one problem for each and no other.
func TestNoUncalledExportsFailsWhenItShould(t *testing.T) {
	dir := t.TempDir()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") && path != "go.mod" {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return writeFile(filepath.Join(dir, path), string(src))
	})
	if err != nil {
		t.Fatal(err)
	}
	for path, src := range map[string]string{
		"internal/core/planted.go": "package core\n\nfunc PlantedTestOnly() {}\n\nfunc PlantedBenchOnly() {}\n\n" +
			"func (s *Scheduler) Drained() bool { return s == nil }\n\n" +
			"type Planted struct{ Knob int }\n",
		"internal/core/planted_test.go": "package core\n\nvar _ = PlantedTestOnly\n\nvar _ = (*Scheduler).Drained\n\nvar _ = Planted{Knob: 1}\n",
		"bench/planted.go":              "package main\n\nimport \"elastichpc/internal/core\"\n\nvar _ = core.PlantedBenchOnly\n",
	} {
		if err := writeFile(filepath.Join(dir, path), src); err != nil {
			t.Fatal(err)
		}
	}
	pinned := maps.Clone(benchPinned)
	pinned["core.Scheduler.PlantedPin"] = "bench/probes.go:1" // names nothing
	pinned["core.Scheduler.Submit"] = "bench/probes.go:1"     // production reaches it
	pinned["k8s.ObjectMeta.Name"] = "bench/probes.go:1"       // production sets it

	problems, err := uncalledExports(dir, pinned)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"core.PlantedTestOnly", "core.PlantedBenchOnly", "core.Scheduler.Drained", "core.Planted.Knob",
		"core.Scheduler.PlantedPin", "core.Scheduler.Submit", "k8s.ObjectMeta.Name",
	}
	for _, w := range want {
		if !slices.ContainsFunc(problems, func(p string) bool { return strings.Contains(p, w+" ") }) {
			t.Errorf("no problem names the planted %s", w)
		}
	}
	if len(problems) != len(want) {
		t.Errorf("got %d problems, want one for each of %v:\n%s", len(problems), want, strings.Join(problems, "\n"))
	}
}

func writeFile(path, src string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(src), 0o644)
}

// uncalledExports type-checks the module at root and returns, sorted, one
// line for each exported function, method or interface method under
// internal/ that production code does not reach, one for each exported
// field of an exported struct type under internal/ that production code
// does not set, and one for each pinned entry that is not an export only
// bench/ reaches or a field only bench/ sets.
//
// Names resolve by type (types.Info), so an export is not reached because
// something else shares its name. A checked function or method is reached
// by a call, a method value or a method expression; reaching an interface
// method reaches the method of that name of every type in the module that
// implements the interface. A field is set by a keyed or positional
// composite literal, an assignment or inc/dec target, an address-of, or the
// receiver of a pointer-method call.
//
// Reaching is computed to a fixed point: what a checked function's body
// uses or sets counts only once the function is reached. The bodies reached
// first are those of every function that is not itself checked (unexported
// functions, calledByName methods, cmd/ and examples/) plus everything
// outside a function body, and the pinned exports'.
func uncalledExports(root string, pinned map[string]string) ([]string, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := lint.LoadPackages(abs, "./...")
	if err != nil {
		return nil, err
	}
	type ref struct {
		obj types.Object // a *types.Func, or a field's *types.Var
		set bool         // a field written, not read
	}
	type decl struct {
		ref
		label, pos string // label is pkg.Func, pkg.Type.Method or pkg.Type.Field
	}
	var decls []decl
	var roots []ref             // what production reaches from an unchecked body
	uses := map[ref][]ref{}     // a checked function -> what its body uses and sets
	benchUses := map[ref]bool{} // what bench/ uses and sets
	var named []*types.TypeName // the module's package-level non-generic types

	for _, p := range pkgs {
		info := p.Info
		for _, name := range p.Types.Scope().Names() {
			if tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
					named = append(named, tn)
				}
			}
		}
		for _, f := range p.Files {
			rel, err := filepath.Rel(abs, p.Fset.Position(f.Pos()).Filename)
			if err != nil {
				return nil, err
			}
			rel = filepath.ToSlash(rel)
			bench := strings.HasPrefix(rel, "bench/")
			declarer := strings.HasPrefix(rel, "internal/")
			rootUse := func(r ref) {
				if bench {
					benchUses[r] = true
				} else {
					roots = append(roots, r)
				}
			}
			walk := func(n ast.Node, to func(ref)) {
				setField := func(e ast.Expr) {
					for {
						switch x := e.(type) {
						case *ast.ParenExpr:
							e = x.X
							continue
						case *ast.IndexExpr:
							if _, ok := info.TypeOf(x.X).Underlying().(*types.Array); ok {
								e = x.X
								continue
							}
						case *ast.SelectorExpr:
							if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
								to(ref{sel.Obj().(*types.Var).Origin(), true})
								if !sel.Indirect() {
									e = x.X
									continue
								}
							}
						}
						return
					}
				}
				ast.Inspect(n, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if fn, ok := info.Uses[n].(*types.Func); ok {
							to(ref{fn.Origin(), false})
						}
					case *ast.CompositeLit:
						t := info.TypeOf(n)
						if ptr, ok := t.Underlying().(*types.Pointer); ok {
							t = ptr.Elem() // an elided &T in a []*T literal
						}
						st, ok := t.Underlying().(*types.Struct)
						if !ok {
							break
						}
						for i, elt := range n.Elts {
							field := st.Field(i)
							if kv, keyed := elt.(*ast.KeyValueExpr); keyed {
								field = info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
							}
							to(ref{field.Origin(), true})
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							setField(lhs)
						}
					case *ast.IncDecStmt:
						setField(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							setField(n.X)
						}
					case *ast.SelectorExpr:
						if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
							_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
							_, ptrX := info.TypeOf(n.X).Underlying().(*types.Pointer)
							if ptrRecv && !ptrX {
								setField(n.X)
							}
						}
					}
					return true
				})
			}
			pkgName := p.Types.Name() + "."
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if bench || !declarer || !d.Name.IsExported() || calledByName[d.Name.Name] {
						walk(d, rootUse)
						continue
					}
					fn := info.Defs[d.Name].(*types.Func)
					label := pkgName + d.Name.Name
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						t := recv.Type()
						if ptr, ok := t.(*types.Pointer); ok {
							t = ptr.Elem()
						}
						label = pkgName + t.(*types.Named).Obj().Name() + "." + d.Name.Name
					}
					decls = append(decls, decl{ref{fn, false}, label, p.Fset.Position(d.Name.Pos()).String()})
					if d.Recv != nil {
						walk(d.Recv, rootUse)
					}
					walk(d.Type, rootUse)
					if d.Body != nil {
						walk(d.Body, func(r ref) { uses[ref{fn, false}] = append(uses[ref{fn, false}], r) })
					}
				case *ast.GenDecl:
					walk(d, rootUse)
					if bench || !declarer || d.Tok != token.TYPE {
						continue
					}
					for _, s := range d.Specs {
						ts := s.(*ast.TypeSpec)
						var members []*ast.Field
						set := false
						switch t := ts.Type.(type) {
						case *ast.StructType:
							if !ts.Name.IsExported() {
								continue
							}
							members, set = t.Fields.List, true
						case *ast.InterfaceType:
							members = t.Methods.List
						}
						for _, m := range members {
							for _, id := range m.Names {
								if id.IsExported() && (set || !calledByName[id.Name]) {
									decls = append(decls, decl{
										ref{info.Defs[id], set},
										pkgName + ts.Name.Name + "." + id.Name,
										p.Fset.Position(id.Pos()).String(),
									})
								}
							}
						}
					}
				}
			}
		}
	}
	if len(decls) < 100 {
		return nil, fmt.Errorf("only %d exported declarations found: the load is not seeing the tree", len(decls))
	}

	reached := map[ref]bool{}
	implementors := func(m *types.Func) []ref {
		recv := m.Type().(*types.Signature).Recv()
		if recv == nil || !types.IsInterface(recv.Type()) {
			return nil
		}
		iface := recv.Type().Underlying().(*types.Interface)
		var impl []ref
		for _, tn := range named {
			if types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			if !types.Implements(tn.Type(), iface) && !types.Implements(ptr, iface) {
				continue
			}
			if obj, _, _ := types.LookupFieldOrMethod(ptr, false, tn.Pkg(), m.Name()); obj != nil {
				impl = append(impl, ref{obj.(*types.Func).Origin(), false})
			}
		}
		return impl
	}
	reach := func(from []ref) {
		for len(from) > 0 {
			r := from[len(from)-1]
			from = from[:len(from)-1]
			if reached[r] {
				continue
			}
			reached[r] = true
			from = append(from, uses[r]...)
			if fn, ok := r.obj.(*types.Func); ok {
				from = append(from, implementors(fn)...)
			}
		}
	}
	reach(roots)
	var problems []string
	byLabel := map[string]ref{}
	for _, d := range decls {
		byLabel[d.label] = d.ref
	}
	verb := func(r ref) string {
		if r.set {
			return "set"
		}
		return "reached"
	}
	var pins []ref
	for label, site := range pinned {
		switch r, ok := byLabel[label]; {
		case !ok:
			problems = append(problems, fmt.Sprintf("benchPinned: %s (%s) is not an export or field under internal/", label, site))
		case reached[r]:
			problems = append(problems, fmt.Sprintf("benchPinned: %s (%s) is %s by production code: unpin it", label, site, verb(r)))
		case !benchUses[r]:
			problems = append(problems, fmt.Sprintf("benchPinned: %s (%s) is not %s from bench/: unpin it", label, site, verb(r)))
		default:
			pins = append(pins, r)
		}
	}
	reach(pins)
	for _, d := range decls {
		fix := "delete it, or unexport it into the harness of the tests that use it"
		if d.set {
			fix = "make it a constant or an unexported field, or delete it"
		}
		switch {
		case reached[d.ref]:
		case benchUses[d.ref]:
			problems = append(problems, fmt.Sprintf("%s: %s is %s only from bench/ and tests: %s, or pin it with its bench/ site", d.pos, d.label, verb(d.ref), fix))
		default:
			problems = append(problems, fmt.Sprintf("%s: %s is %s by no production code: %s", d.pos, d.label, verb(d.ref), fix))
		}
	}
	slices.Sort(problems)
	return problems, nil
}
