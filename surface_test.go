package elastichpc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// calledByName are the methods the standard library reaches through its own
// interfaces (sort, heap, flag, fmt, error, go/types, encoding), so nothing
// in the repository needs to spell them.
var calledByName = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"String": true, "Set": true, "Error": true, "Import": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// benchPinned are the exports that only bench/ reaches. bench/ measures
// every change against its parent with the parent's own harness, so it
// cannot change in the same commit as the code it measures; an export it
// calls stays until a benchmark revision drops the call. Each entry is the
// bench/ line that calls it.
var benchPinned = map[string]string{
	"core.Scheduler.ExportStateInto": "bench/probes.go:312",
	"core.Scheduler.RestoreState":    "bench/probes.go:313",
	"core.Scheduler.VisitRunning":    "bench/probes.go:269",
	"sim.Simulator.QueuedJobs":       "bench/probes.go:414",
	"metrics.Read":                   "bench/probes.go:589",
}

// TestNoUncalledExports: an exported function or method declared in a
// non-test file under internal/ must be reached by production code — a
// non-test file outside bench/ and testdata/ — through a call, a method
// value or an interface's method list. Tests are not callers: an export only
// a test names is deleted (its test moved onto what production calls) or
// unexported into the test's harness. Everything lives behind internal/, so
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

// TestNoUncalledExportsFailsWhenItShould plants, in a copy of the tree, an
// export only a test names and one only bench/ names, and adds two
// benchPinned entries that pin nothing — one names no export, one an export
// production reaches — and requires one problem for each and no other.
func TestNoUncalledExportsFailsWhenItShould(t *testing.T) {
	dir := t.TempDir()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
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
		"internal/core/planted.go":      "package core\n\nfunc PlantedTestOnly() {}\n\nfunc PlantedBenchOnly() {}\n",
		"internal/core/planted_test.go": "package core\n\nvar _ = PlantedTestOnly\n",
		"bench/planted.go":              "package main\n\nimport \"elastichpc/internal/core\"\n\nvar _ = core.PlantedBenchOnly\n",
	} {
		if err := writeFile(filepath.Join(dir, path), src); err != nil {
			t.Fatal(err)
		}
	}
	pinned := maps.Clone(benchPinned)
	pinned["core.Scheduler.PlantedPin"] = "bench/probes.go:1" // names nothing
	pinned["core.Scheduler.Submit"] = "bench/probes.go:1"     // production reaches it

	problems, err := uncalledExports(dir, pinned)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"core.PlantedTestOnly", "core.PlantedBenchOnly", "core.Scheduler.PlantedPin", "core.Scheduler.Submit"}
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

// uncalledExports walks the module at root and returns, sorted, one line for
// each exported function or method under internal/ that production code does
// not reach, and one for each pinned entry that is not an export only bench/
// reaches.
//
// Reaching is computed to a fixed point: a name counts as reached when a
// reached body names it, so an export named only from an unreached export's
// body is unreached too. The bodies reached first are those of every
// function that is not itself checked (unexported functions, cmd/ and
// examples/) plus everything outside a function body, and the pinned
// exports'.
//
// The check is syntactic. A function counts as named by its bare identifier
// in its own directory or by a selector on an import of its package; a method
// by its name after any dot or in any declaration. So it can miss an
// unreached export whose name something else shares, and cannot flag a
// reached one.
func uncalledExports(root string, pinned map[string]string) ([]string, error) {
	type name struct{ pkg, ident string } // pkg is an import path, or "" for "after any dot"
	type decl struct {
		name
		label, pos string // label is pkg.Func or pkg.Type.Method
	}
	var decls []decl
	var roots []name             // names production reaches from an unchecked body
	uses := map[name][]name{}    // a checked export -> the names its body uses
	benchUses := map[name]bool{} // names bench/ uses
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir // .git, .bench_build's copy of another commit, analyzer fixtures
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix("elastichpc/"+filepath.ToSlash(filepath.Dir(rel)), "/.")
		imports := map[string]string{} // the file's name for a package -> its import path
		for _, im := range f.Imports {
			ip := strings.Trim(im.Path.Value, `"`)
			local := ip[strings.LastIndex(ip, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = ip
		}
		bench := strings.HasPrefix(rel, "bench/")
		declarer := strings.HasPrefix(rel, "internal/")
		var record func(n name)
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				record(name{"", n.Sel.Name})
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					record(name{imports[x.Name], n.Sel.Name})
				} else {
					ast.Inspect(n.X, visit)
				}
				return false
			case *ast.Ident:
				record(name{"", n.Name})
				record(name{pkg, n.Name})
			}
			return true
		}
		walk := func(n ast.Node, to func(name)) {
			record = to
			ast.Inspect(n, visit)
		}
		rootUse := func(n name) {
			if bench {
				benchUses[n] = true
			} else {
				roots = append(roots, n)
			}
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || bench || !declarer || !fd.Name.IsExported() || calledByName[fd.Name.Name] {
				walk(d, rootUse)
				continue
			}
			nm, label := name{pkg, fd.Name.Name}, pkg[strings.LastIndex(pkg, "/")+1:]+"."
			if fd.Recv != nil {
				nm.pkg = ""
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				switch ix := typ.(type) {
				case *ast.IndexExpr:
					typ = ix.X
				case *ast.IndexListExpr:
					typ = ix.X
				}
				label += typ.(*ast.Ident).Name + "."
				walk(fd.Recv, rootUse)
			}
			decls = append(decls, decl{nm, label + fd.Name.Name, fset.Position(fd.Name.Pos()).String()})
			walk(fd.Type, rootUse)
			if fd.Body != nil {
				walk(fd.Body, func(n name) { uses[nm] = append(uses[nm], n) })
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(decls) < 100 {
		return nil, fmt.Errorf("only %d exported declarations found: the walk is not seeing the tree", len(decls))
	}

	reached := map[name]bool{}
	reach := func(from []name) {
		for len(from) > 0 {
			n := from[len(from)-1]
			from = from[:len(from)-1]
			if !reached[n] {
				reached[n] = true
				from = append(from, uses[n]...)
			}
		}
	}
	reach(roots)
	var problems []string
	byLabel := map[string]name{}
	for _, d := range decls {
		byLabel[d.label] = d.name
	}
	var pins []name
	for label, site := range pinned {
		switch n, ok := byLabel[label]; {
		case !ok:
			problems = append(problems, fmt.Sprintf("benchPinned: %s (%s) is not an exported function or method under internal/", label, site))
		case reached[n]:
			problems = append(problems, fmt.Sprintf("benchPinned: %s (%s) is reached by production code: unpin it", label, site))
		case !benchUses[n]:
			problems = append(problems, fmt.Sprintf("benchPinned: %s (%s) is not named in bench/: unpin it", label, site))
		default:
			pins = append(pins, n)
		}
	}
	reach(pins)
	for _, d := range decls {
		switch {
		case reached[d.name]:
		case benchUses[d.name]:
			problems = append(problems, fmt.Sprintf("%s: %s is reached only from bench/ and tests: delete it, or pin it with its bench/ call site", d.pos, d.label))
		default:
			problems = append(problems, fmt.Sprintf("%s: %s is reached by no production code: delete it, or unexport it into the harness of the tests that use it", d.pos, d.label))
		}
	}
	slices.Sort(problems)
	return problems, nil
}
