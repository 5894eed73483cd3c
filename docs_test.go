package elastichpc

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameWhatExists: the workflow, the README, the architecture notes
// and the verify skill may only name commands, examples and fuzz targets that
// are in the tree — every ./cmd/<name> (or `cmd/<name>`) and every
// examples/<name> is a directory and every -fuzz Fuzz<Name> is a fuzz
// function — so deleting or renaming one fails here until the documents
// follow. The root package exports nothing, so a document spelling
// elastichpc.<Exported> (or hpc.<Exported>, the alias the examples gave it)
// names something that is not there.
func TestDocsNameWhatExists(t *testing.T) {
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
	if err != nil {
		t.Fatal(err)
	}

	cmdPath := regexp.MustCompile("(?:\\./|`)(cmd)/([a-z][a-z0-9-]*)")
	examplePath := regexp.MustCompile(`\b(examples)/([a-z][a-z0-9-]*)`)
	rootExport := regexp.MustCompile(`\b(?:elastichpc|hpc)\.[A-Z]\w*`)
	fuzzFlag := regexp.MustCompile(`-fuzz (Fuzz\w+)`)
	for _, doc := range []string{
		".github/workflows/ci.yml", "README.md", "docs/ARCHITECTURE.md", ".claude/skills/verify/SKILL.md",
	} {
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
