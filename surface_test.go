package elastichpc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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

// TestNoUncalledExports: an exported function or method declared in a
// non-test file under internal/ must be named somewhere else in the
// repository — a call, a method value, a test, an interface's method list.
// Everything lives behind internal/, so an export
// nothing names has no caller and is deleted, not kept for later.
//
// The check is syntactic. A function counts as named by its bare identifier
// in its own directory or by a selector on an import of its package; a method
// by its name after any dot or in any declaration. So it can miss an uncalled
// export whose name something else shares, and cannot flag a called one.
func TestNoUncalledExports(t *testing.T) {
	type name struct{ pkg, ident string } // pkg is an import path, or "" for "after any dot"
	type decl struct {
		name
		pos string
	}
	var decls []decl
	uses := map[name]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, and .bench_build's copy of another commit
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		pkg := strings.TrimSuffix("elastichpc/"+filepath.ToSlash(filepath.Dir(path)), "/.")
		imports := map[string]string{} // the file's name for a package -> its import path
		for _, im := range f.Imports {
			ip := strings.Trim(im.Path.Value, `"`)
			local := ip[strings.LastIndex(ip, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = ip
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				uses[name{"", n.Sel.Name}]++
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					uses[name{imports[x.Name], n.Sel.Name}]++
				} else {
					ast.Inspect(n.X, visit)
				}
				return false
			case *ast.Ident:
				uses[name{"", n.Name}]++
				uses[name{pkg, n.Name}]++
			}
			return true
		}
		ast.Inspect(f, visit)
		declarer := strings.HasPrefix(path, "internal/") &&
			!strings.HasSuffix(path, "_test.go") && !strings.HasPrefix(path, "internal/lint/testdata/")
		if !declarer {
			return nil
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || calledByName[fd.Name.Name] {
				continue
			}
			nm := name{pkg, fd.Name.Name}
			if fd.Recv != nil {
				nm.pkg = ""
			}
			decls = append(decls, decl{nm, fset.Position(fd.Name.Pos()).String()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 100 {
		t.Fatalf("only %d exported declarations found: the walk is not seeing the tree", len(decls))
	}
	for _, d := range decls {
		if uses[d.name] == 1 { // its own declaration
			t.Errorf("%s: %s is exported and nothing names it", d.pos, d.ident)
		}
	}
}
