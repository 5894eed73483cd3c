package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// The harness is a small analysistest stand-in: each directory under
// testdata/<analyzer>/<case> is one package of fixture files. A
// `// pkgpath: <import path>` directive names the import path the fixture
// type-checks under (so the scope tables see the real elastichpc paths), and
// every line expecting a diagnostic carries a trailing `// want "substring"`
// comment. The whole suite runs over every fixture, so a case also proves
// the *other* analyzers stay quiet on its code.

var (
	pkgpathRE = regexp.MustCompile(`(?m)^// pkgpath: (\S+)$`)
	wantRE    = regexp.MustCompile(`// want "([^"]*)"`)
)

// sharedImporter resolves fixture imports (stdlib and module-local) once per
// test process.
var sharedImporter = NewTestImporter(".")

// expectation is one `// want` marker.
type expectation struct {
	file string // base name
	line int
	sub  string
}

// runCase type-checks one fixture directory and diffs the suite's findings
// against its want markers, both directions.
func runCase(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var wants []expectation
	pkgpath := ""
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if m := pkgpathRE.FindSubmatch(src); m != nil {
			pkgpath = string(m[1])
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				wants = append(wants, expectation{file: e.Name(), line: i + 1, sub: m[1]})
			}
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		files = append(files, f)
	}
	if pkgpath == "" {
		t.Fatalf("%s: no // pkgpath: directive in any fixture file", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: sharedImporter, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	tpkg, err := conf.Check(pkgpath, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", dir, err)
	}

	diags := Run(&Package{Path: pkgpath, Fset: fset, Files: files, Types: tpkg, Info: info}, Suite())

	matched := make([]bool, len(diags))
	for _, w := range wants {
		ok := false
		for i, d := range diags {
			if matched[i] {
				continue
			}
			if filepath.Base(d.Pos.Filename) == w.file && d.Pos.Line == w.line &&
				strings.Contains(d.Analyzer+": "+d.Message, w.sub) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s:%d: expected a diagnostic containing %q, got none", w.file, w.line, w.sub)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestAnalyzers runs every fixture package under testdata.
func TestAnalyzers(t *testing.T) {
	groups, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		if !g.IsDir() {
			continue
		}
		cases, err := os.ReadDir(filepath.Join("testdata", g.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			if !c.IsDir() {
				continue
			}
			t.Run(g.Name()+"/"+c.Name(), func(t *testing.T) {
				runCase(t, filepath.Join("testdata", g.Name(), c.Name()))
			})
		}
	}
}

// TestSuppressionRoundTrip proves the annotation mechanism end to end on
// generated twins: the same offending line is flagged bare, suppressed when
// annotated with a reason, and the reasonless annotation both fails to
// suppress and is itself flagged.
func TestSuppressionRoundTrip(t *testing.T) {
	const body = `package sim

// pkgpath is irrelevant here; the package path comes from the checker call.
func order(m map[string]int) int {
	n := 0
	%s
	for k := range m {
		n += len(k)
	}
	return n
}
`
	cases := []struct {
		name       string
		annotation string
		want       []string // analyzer names expected, in position order
	}{
		{"bare", "//", []string{"nomapiter"}},
		{"annotated", "//lint:deterministic commutative fold into an int", nil},
		{"no-reason", "//lint:deterministic", []string{"lintdirective", "nomapiter"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := fmt.Sprintf(body, tc.annotation)
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "roundtrip.go", src, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			info := &types.Info{
				Types:      make(map[ast.Expr]types.TypeAndValue),
				Defs:       make(map[*ast.Ident]types.Object),
				Uses:       make(map[*ast.Ident]types.Object),
				Selections: make(map[*ast.SelectorExpr]*types.Selection),
				Implicits:  make(map[ast.Node]types.Object),
			}
			conf := types.Config{Importer: sharedImporter, Sizes: types.SizesFor("gc", runtime.GOARCH)}
			tpkg, err := conf.Check("elastichpc/internal/sim", fset, []*ast.File{f}, info)
			if err != nil {
				t.Fatal(err)
			}
			diags := Run(&Package{Path: "elastichpc/internal/sim", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}, Suite())
			var got []string
			for _, d := range diags {
				got = append(got, d.Analyzer)
			}
			if strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Fatalf("diagnostics = %v, want analyzers %v\n%s", diags, tc.want, src)
			}
		})
	}
}

// TestRepoClean runs the full suite over the whole repository, so tier-1
// holds the determinism invariants on every commit without CI. Any
// intentional exception must carry a //lint:deterministic reason.
func TestRepoClean(t *testing.T) {
	var all []string
	for _, pkg := range repoPackages(t) {
		for _, d := range Run(pkg, Suite()) {
			all = append(all, d.String())
		}
	}
	sort.Strings(all)
	for _, d := range all {
		t.Errorf("%s", d)
	}
}
