package lint

import (
	"fmt"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// repo is the repository, loaded and type-checked once per test process for
// the tests that read the real tree.
var repo struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// repoPackages returns every package of the module, skipping under -short.
func repoPackages(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and type-checks the full dependency graph")
	}
	repo.once.Do(func() { repo.pkgs, repo.err = LoadPackages("../..", "./...") })
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.pkgs
}

// scopeTables is everything the analyzers' scope tables name, as one value a
// test can plant a stale entry in.
type scopeTables struct {
	pkgSets           []map[string]bool
	blessed           map[[2]string]bool
	sealed            []sealedSpec
	ringPkg, ringFile string
}

// liveTables is the tables the suite runs with.
func liveTables() scopeTables {
	return scopeTables{
		pkgSets: []map[string]bool{deterministicPkgs, boundaryPkgs, orderedOutputPkgs},
		blessed: blessedConcurrency,
		sealed:  sealedSpecs,
		ringPkg: corePkg, ringFile: ringFile,
	}
}

// staleEntries lists, sorted, every entry of tables that names nothing in
// pkgs: a package the module does not have, a file its package does not
// have, a type its package does not declare as a struct, a field that
// struct lacks.
func staleEntries(pkgs []*Package, tables scopeTables) []string {
	byPath := map[string]*Package{}
	files := map[[2]string]bool{}
	for _, p := range pkgs {
		byPath[p.Path] = p
		for _, f := range p.Files {
			files[[2]string{p.Path, filepath.Base(p.Fset.File(f.Pos()).Name())}] = true
		}
	}
	var stale []string
	for _, set := range tables.pkgSets {
		for path := range set {
			if byPath[path] == nil {
				stale = append(stale, "package "+path)
			}
		}
	}
	for site := range tables.blessed {
		if !files[site] {
			stale = append(stale, fmt.Sprintf("blessedConcurrency file %s/%s", site[0], site[1]))
		}
	}
	if !files[[2]string{tables.ringPkg, tables.ringFile}] {
		stale = append(stale, fmt.Sprintf("ringFile %s/%s", tables.ringPkg, tables.ringFile))
	}
	for _, s := range tables.sealed {
		p := byPath[s.pkg]
		if p == nil {
			stale = append(stale, "sealedSpecs package "+s.pkg)
			continue
		}
		var st *types.Struct
		if tn, ok := p.Types.Scope().Lookup(s.typ).(*types.TypeName); ok {
			st, _ = tn.Type().Underlying().(*types.Struct)
		}
		if st == nil {
			stale = append(stale, fmt.Sprintf("sealedSpecs type %s.%s", s.pkg, s.typ))
			continue
		}
		have := map[string]bool{}
		for i := 0; i < st.NumFields(); i++ {
			have[st.Field(i).Name()] = true
		}
		for f := range s.fields {
			if !have[f] {
				stale = append(stale, fmt.Sprintf("sealedSpecs field %s.%s.%s", s.pkg, s.typ, f))
			}
		}
		for f := range s.allowed {
			if !files[[2]string{s.pkg, f}] {
				stale = append(stale, fmt.Sprintf("sealedSpecs file %s/%s", s.pkg, f))
			}
		}
	}
	sort.Strings(stale)
	return stale
}

// TestScopeTablesNameWhatExists: an analyzer matches its scope tables against
// the tree and stays silent where they match nothing, so a table entry that
// outlives a rename — a moved accumulator field, a renamed file — turns its
// check off without a word. Every package, file, type and field the tables
// name must exist, and a field misspelled in a copy of sealedSpecs must be
// the one entry reported.
func TestScopeTablesNameWhatExists(t *testing.T) {
	pkgs := repoPackages(t)
	if stale := staleEntries(pkgs, liveTables()); len(stale) > 0 {
		t.Errorf("scope tables name what does not exist:\n%s", strings.Join(stale, "\n"))
	}

	planted := liveTables()
	spec := sealedSpecs[0]
	spec.fields = map[string]bool{"utilAera": true}
	for f := range sealedSpecs[0].fields {
		spec.fields[f] = true
	}
	planted.sealed = []sealedSpec{spec}
	want := fmt.Sprintf("sealedSpecs field %s.%s.utilAera", spec.pkg, spec.typ)
	if got := staleEntries(pkgs, planted); len(got) != 1 || got[0] != want {
		t.Errorf("planted misspelling: stale entries %q, want [%q]", got, want)
	}
}
