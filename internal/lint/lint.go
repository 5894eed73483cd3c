// Package lint is elasticvet's analysis framework: a small, dependency-free
// substitute for golang.org/x/tools/go/analysis that carries the repo's
// determinism invariants as compile-time checks. Each Analyzer inspects one
// type-checked package and reports Diagnostics; cmd/elasticvet is the driver
// (go run ./cmd/elasticvet ./...).
//
// Diagnostics are suppressed line by line with an annotation that must carry
// a reason:
//
//	//lint:deterministic keys are collected and sorted below
//
// The annotation suppresses elasticvet findings on its own line and on the
// line that follows (so it can trail the offending statement or sit on its
// own line above it). A bare annotation with no reason is itself a
// diagnostic. Test files (_test.go) and generated files are never checked:
// the invariants guard the production decision paths, and tests routinely
// spin goroutines or range maps on purpose.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check over a type-checked package.
type Analyzer struct {
	Name string // short lowercase identifier, e.g. "nomapiter"
	Doc  string // one-paragraph description of the invariant it proves
	Run  func(*Pass)
}

// Diagnostic is one finding, positioned in the analyzed package's fileset.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic the way go vet does: pos: analyzer: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass hands one package to one analyzer and collects its findings.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags      *[]Diagnostic
	suppressed map[string]map[int]bool // filename -> suppressed lines
	skipFiles  map[*ast.File]bool      // _test.go and generated files
}

// Path returns the package import path with any go-vet test-variant suffix
// (" [pkg.test]") stripped, so scope tables match both build flavors.
func (p *Pass) Path() string {
	path := p.Pkg.Path()
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	return path
}

// File returns the base filename holding pos (e.g. "merge.go").
func (p *Pass) File(pos token.Pos) string {
	name := p.Fset.Position(pos).Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// Reportf records a diagnostic at pos unless the position is suppressed by a
// //lint:deterministic annotation or sits in a test or generated file.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if strings.HasSuffix(position.Filename, "_test.go") {
		return
	}
	if lines := p.suppressed[position.Filename]; lines[position.Line] {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Walk runs fn over every node of every checkable file (skipping test and
// generated files entirely, not just their diagnostics).
func (p *Pass) Walk(fn func(n ast.Node) bool) {
	for _, f := range p.Files {
		if p.skipFiles[f] {
			continue
		}
		ast.Inspect(f, fn)
	}
}

// suppressRE matches the determinism annotation; the capture group is the
// mandatory reason.
var suppressRE = regexp.MustCompile(`^//lint:deterministic(?:\s+(.*\S))?\s*$`)

// generatedRE is the standard "Code generated ... DO NOT EDIT." marker.
var generatedRE = regexp.MustCompile(`^// Code generated .* DO NOT EDIT\.$`)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Run applies every analyzer to the package and returns the findings sorted
// by position. Malformed //lint:deterministic annotations (no reason) are
// reported once per package under the pseudo-analyzer "lintdirective".
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	suppressed := make(map[string]map[int]bool)
	skip := make(map[*ast.File]bool)
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") || isGenerated(f) {
			skip[f] = true
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := suppressRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				if m[1] == "" {
					diags = append(diags, Diagnostic{
						Pos:      pkg.Fset.Position(c.Pos()),
						Analyzer: "lintdirective",
						Message:  "//lint:deterministic needs a reason: //lint:deterministic <why this site is safe>",
					})
					continue
				}
				if suppressed[name] == nil {
					suppressed[name] = make(map[int]bool)
				}
				suppressed[name][line] = true
				suppressed[name][line+1] = true
			}
		}
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			diags:      &diags,
			suppressed: suppressed,
			skipFiles:  skip,
		}
		a.Run(pass)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// isGenerated reports whether the file carries the standard generated-code
// marker before its package clause.
func isGenerated(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if generatedRE.MatchString(c.Text) {
				return true
			}
		}
	}
	return false
}

// pkgFunc resolves a called expression to a package-level function of an
// imported package: it returns the importing name's package path and the
// function name for calls of the form pkgname.Func(...), and ok=false for
// anything else (methods, locals, builtins).
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	id, okID := sel.X.(*ast.Ident)
	if !okID {
		return "", "", false
	}
	pn, okPkg := info.Uses[id].(*types.PkgName)
	if !okPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// namedField resolves a selector expression to (owning named type, field
// name) if it selects a struct field; ok=false otherwise. Pointers are
// dereferenced, aliases unwrapped.
func namedField(info *types.Info, sel *ast.SelectorExpr) (owner *types.Named, field string, ok bool) {
	s, okSel := info.Selections[sel]
	if !okSel || s.Kind() != types.FieldVal {
		return nil, "", false
	}
	t := s.Recv()
	if ptr, okPtr := types.Unalias(t).(*types.Pointer); okPtr {
		t = ptr.Elem()
	}
	named, okNamed := types.Unalias(t).(*types.Named)
	if !okNamed {
		return nil, "", false
	}
	return named, sel.Sel.Name, true
}
