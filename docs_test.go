package elastichpc

import (
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// docs are the documents that tell a reader what to run.
var docs = []string{".github/workflows/ci.yml", "README.md", "docs/ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"}

// TestDocsNameWhatExists: the workflow, the README, the architecture notes
// and the verify skill may only name commands, examples and fuzz targets that
// are in the tree — every ./cmd/<name> (or `cmd/<name>`) and every
// examples/<name> is a directory and every -fuzz Fuzz<Name> is a fuzz
// function — so deleting or renaming one fails here until the documents
// follow. The root package exports nothing, so a document spelling
// elastichpc.<Exported> (or hpc.<Exported>, the alias the examples gave it)
// names something that is not there.
func TestDocsNameWhatExists(t *testing.T) {
	fuzzers, err := fuzzTargets()
	if err != nil {
		t.Fatal(err)
	}

	cmdPath := regexp.MustCompile("(?:\\./|`)(cmd)/([a-z][a-z0-9-]*)")
	examplePath := regexp.MustCompile(`\b(examples)/([a-z][a-z0-9-]*)`)
	rootExport := regexp.MustCompile(`\b(?:elastichpc|hpc)\.[A-Z]\w*`)
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		dirs := append(cmdPath.FindAllSubmatch(text, -1), examplePath.FindAllSubmatch(text, -1)...)
		for _, m := range dirs {
			if st, err := os.Stat(filepath.Join(string(m[1]), string(m[2]))); err != nil || !st.IsDir() {
				t.Errorf("%s names %s/%s, which is not a directory", doc, m[1], m[2])
			}
		}
		for _, m := range rootExport.FindAll(text, -1) {
			t.Errorf("%s spells %s: the root package exports nothing", doc, m)
		}
		for _, m := range fuzzFlag.FindAllSubmatch(text, -1) {
			if !fuzzers[string(m[1])] {
				t.Errorf("%s runs -fuzz %s, which is not a fuzz function in the tree", doc, m[1])
			}
		}
	}
}

var fuzzFlag = regexp.MustCompile(`-fuzz (Fuzz\w+)`)

// spelledFlag is a command's name and the flag spelled right after it.
var spelledFlag = regexp.MustCompile(`\b(conftest|elasticsim) -([A-Za-z][\w-]*)`)

// helpFlag is a flag's line in a command's -h output.
var helpFlag = regexp.MustCompile(`(?m)^  -([\w-]+)`)

// commandFlags holds, by command, the flags its -h output lists.
var commandFlags = sync.OnceValues(func() (map[string]map[string]bool, error) {
	flags := map[string]map[string]bool{}
	for _, name := range []string{"conftest", "elasticsim"} {
		out, err := exec.Command("go", "run", "./cmd/"+name, "-h").CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("go run ./cmd/%s -h: %v\n%s", name, err, out)
		}
		flags[name] = map[string]bool{"h": true, "help": true}
		for _, m := range helpFlag.FindAllSubmatch(out, -1) {
			flags[name][string(m[1])] = true
		}
	}
	return flags, nil
})

// undefinedFlags returns, in order, every "<command> -<flag>" the text
// spells for a flag that command does not define.
func undefinedFlags(text []byte, flags map[string]map[string]bool) []string {
	var bad []string
	for _, m := range spelledFlag.FindAllSubmatch(text, -1) {
		if !flags[string(m[1])][string(m[2])] {
			bad = append(bad, string(m[0]))
		}
	}
	return bad
}

// TestDocsSpellFlagsThatExist: a document that runs conftest or elasticsim
// spells, right after the command's name, a flag that command defines, as its
// -h output lists them — so moving or deleting a flag fails here until the
// documents follow.
func TestDocsSpellFlagsThatExist(t *testing.T) {
	flags, err := commandFlags()
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range undefinedFlags(text, flags) {
			t.Errorf("%s spells `%s`: that command has no such flag", doc, s)
		}
	}
}

// TestDocsSpellFlagsThatExistFailsWhenItShould plants, in the README, a
// recording made with conftest, which records no more, and an elasticsim
// mode elasticsim does not have. It requires the guard to report both and
// nothing else.
func TestDocsSpellFlagsThatExistFailsWhenItShould(t *testing.T) {
	flags, err := commandFlags()
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	planted := append(readme, "\n    go run ./cmd/conftest -record -out stream.json\n    elasticsim -matrix\n"...)
	want := []string{"conftest -record", "elasticsim -matrix"}
	if got := undefinedFlags(planted, flags); !slices.Equal(got, want) {
		t.Errorf("the planted README reports %q, want %q", got, want)
	}
}

// fuzzTargets returns the fuzz functions the module's test files declare.
func fuzzTargets() (map[string]bool, error) {
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	fuzzers := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, and .bench_build's copy of another commit
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			fuzzers[string(m[1])] = true
		}
		return err
	})
	return fuzzers, err
}

// unsmokedFuzzTargets returns, sorted, the fuzz targets the workflow text
// never runs with -fuzz.
func unsmokedFuzzTargets(fuzzers map[string]bool, workflow []byte) []string {
	run := map[string]bool{}
	for _, m := range fuzzFlag.FindAllSubmatch(workflow, -1) {
		run[string(m[1])] = true
	}
	var missing []string
	for f := range fuzzers {
		if !run[f] {
			missing = append(missing, f)
		}
	}
	slices.Sort(missing)
	return missing
}

// TestEveryFuzzTargetIsSmoked is TestDocsNameWhatExists's converse for fuzz
// targets: every fuzz function in the tree has a fuzz-smoke step in the
// workflow, so a new decoder's target cannot be left out of CI. The check is
// also run on the workflow with one target's step removed.
func TestEveryFuzzTargetIsSmoked(t *testing.T) {
	fuzzers, err := fuzzTargets()
	if err != nil {
		t.Fatal(err)
	}
	workflow, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range unsmokedFuzzTargets(fuzzers, workflow) {
		t.Errorf("%s is a fuzz function that .github/workflows/ci.yml never runs with -fuzz", f)
	}
	planted := regexp.MustCompile(`(?m)^.*-fuzz FuzzUnpack .*\n`).ReplaceAll(workflow, nil)
	if got := unsmokedFuzzTargets(fuzzers, planted); !slices.Equal(got, []string{"FuzzUnpack"}) {
		t.Errorf("with FuzzUnpack's step removed the check reports %v, want [FuzzUnpack]", got)
	}
}

// untestedCommands returns, sorted, the cmd/<name> directories under root
// that hold no _test.go file, so `go test ./...` never runs them.
func untestedCommands(root string) ([]string, error) {
	dirs, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		return nil, err
	}
	var untested []string
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		tests, err := filepath.Glob(filepath.Join(root, "cmd", d.Name(), "*_test.go"))
		if err != nil {
			return nil, err
		}
		if len(tests) == 0 {
			untested = append(untested, "cmd/"+d.Name())
		}
	}
	return untested, nil
}

// TestEveryCommandHasTests: every command has a test file. The check is also
// run on a planted tree with one tested and one untested command.
func TestEveryCommandHasTests(t *testing.T) {
	untested, err := untestedCommands(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range untested {
		t.Errorf("%s has no _test.go file: go test never runs it", c)
	}
	dir := t.TempDir()
	for _, path := range []string{"cmd/tested/main.go", "cmd/tested/main_test.go", "cmd/untested/main.go"} {
		if err := writeFile(filepath.Join(dir, path), "package main\n"); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := untestedCommands(dir); err != nil || !slices.Equal(got, []string{"cmd/untested"}) {
		t.Errorf("planted tree: untested commands %v (%v), want [cmd/untested]", got, err)
	}
}
