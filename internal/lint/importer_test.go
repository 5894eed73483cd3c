package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
)

// newTestImporter returns an importer for the analyzer test harness: it
// resolves each import (standard library or module-local) by shelling out to
// go list for the import's own dependency closure and type-checking it from
// source, caching across calls. dir anchors module resolution.
func newTestImporter(dir string) types.Importer {
	return &testImporter{dir: dir, fset: token.NewFileSet(),
		cache: map[string]*types.Package{"unsafe": types.Unsafe}}
}

// testImporter lazily loads dependency closures per imported path.
type testImporter struct {
	dir   string
	fset  *token.FileSet
	cache map[string]*types.Package
}

// Import satisfies types.Importer over the lazy cache.
func (ti *testImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := ti.cache[path]; ok {
		return pkg, nil
	}
	cmd := exec.Command("go", "list", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,CgoFiles,Standard,DepOnly", path)
	cmd.Dir = ti.dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", path, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPkg
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if _, done := ti.cache[lp.ImportPath]; done || len(lp.CgoFiles) > 0 {
			continue
		}
		files, err := parseFiles(ti.fset, lp.Dir, lp.GoFiles)
		if err != nil {
			continue
		}
		pkg, _, err := check(ti.fset, lp.ImportPath, files, mapImporter(ti.cache), false)
		if pkg != nil {
			ti.cache[lp.ImportPath] = pkg
		} else if err != nil && lp.ImportPath == path {
			return nil, err
		}
	}
	if pkg, ok := ti.cache[path]; ok {
		return pkg, nil
	}
	return nil, fmt.Errorf("package %q did not type-check", path)
}
