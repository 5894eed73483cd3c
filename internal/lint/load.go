package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// The loader resolves package patterns with `go list -deps -json` and
// type-checks everything from source in the dependency order go list already
// guarantees. Dependencies (standard library included) are checked with
// IgnoreFuncBodies — only their exported shape matters — while target
// packages get full bodies and a complete types.Info for the analyzers.
// CGO_ENABLED=0 keeps transitive std packages (net, os/user) pure Go so the
// whole graph type-checks without a C toolchain; this repo has no cgo of its
// own, so the analyzed shape matches the shipped build.

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string } // go list -e reports an unresolvable package here
}

// LoadPackages loads and type-checks the packages matched by patterns
// (resolved in dir) and returns them ready for analysis, in go list order.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,CgoFiles,Standard,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	fset := token.NewFileSet()
	imported := map[string]*types.Package{"unsafe": types.Unsafe}
	imp := mapImporter(imported)
	var targets []*Package

	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPkg
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if lp.ImportPath == "unsafe" {
			continue
		}
		target := !lp.DepOnly && !lp.Standard
		if target && lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.CgoFiles) > 0 {
			if target {
				return nil, fmt.Errorf("%s: cgo packages are not analyzable", lp.ImportPath)
			}
			continue
		}
		files, err := parseFiles(fset, lp.Dir, lp.GoFiles)
		if err != nil {
			if target {
				return nil, err
			}
			continue
		}
		pkg, info, err := check(fset, lp.ImportPath, files, imp, target)
		if err != nil && target {
			return nil, fmt.Errorf("%s: %v", lp.ImportPath, err)
		}
		if pkg != nil {
			imported[lp.ImportPath] = pkg
		}
		if target && pkg != nil {
			targets = append(targets, &Package{
				Path: lp.ImportPath, Fset: fset, Files: files, Types: pkg, Info: info,
			})
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("%v matched no packages", patterns)
	}
	return targets, nil
}

// parseFiles parses the named files (with comments, for annotations).
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks one package. Targets get full bodies and Info;
// dependencies only need their exported declarations.
func check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer, target bool) (*types.Package, *types.Info, error) {
	var firstErr error
	conf := types.Config{
		Importer:         imp,
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		IgnoreFuncBodies: !target,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	var info *types.Info
	if target {
		info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err == nil {
		err = firstErr
	}
	return pkg, info, err
}

// mapImporter resolves imports from the progressively-filled package map;
// go list's dependency-first ordering guarantees entries exist when needed.
type mapImporter map[string]*types.Package

// Import resolves path from the already-checked package map.
func (m mapImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m[path]; ok {
		return pkg, nil
	}
	return nil, fmt.Errorf("package %q not loaded (not in the go list -deps closure)", path)
}
