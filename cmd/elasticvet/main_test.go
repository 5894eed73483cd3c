package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elastichpc/internal/lint"
)

// planted breaks every invariant in lint.Suite() once, in a package the scope
// tables govern (the fixture module is named elastichpc, like this one).
const planted = `package sim

import (
	"time"

	"elastichpc/internal/core"
)

type Ledger struct{ utilArea float64 }

func Run(m map[string]int) (core.Decision, time.Time) {
	l := &Ledger{}
	for range m { // nomapiter
		l.utilArea += 1 // sealedfloat: not ledger.go
	}
	go func() {}() // nostraygoroutine
	if len(m) > 9 {
		panic("across the boundary") // noboundarypanic
	}
	return core.Decision{}, time.Now() // ringlogonly, nowallclock
}
`

// vet runs the driver on ./... of a module holding files and returns its exit
// code and standard output.
func vet(t *testing.T, files map[string]string, patterns ...string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module elastichpc\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer func(saved *os.File) { os.Stdout = saved }(os.Stdout)
	os.Stdout = out
	code := run(patterns)
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(printed)
}

// TestDriverFailsOnFindings: the one way the suite runs — this driver — exits
// 1 and names the analyzer for a violation of each invariant, exits 0 in
// silence on the same tree without them, and exits 2 when a pattern resolves
// to nothing, so a typo in CI's command cannot pass for a clean run.
func TestDriverFailsOnFindings(t *testing.T) {
	core := "package core\n\ntype Decision struct{ Seq int }\n"
	code, out := vet(t, map[string]string{"internal/core/core.go": core, "internal/sim/sim.go": planted}, "./...")
	if code != 1 {
		t.Errorf("exit %d on planted violations, want 1\n%s", code, out)
	}
	for _, a := range lint.Suite() {
		if !strings.Contains(out, ": "+a.Name+": ") {
			t.Errorf("no %s finding in:\n%s", a.Name, out)
		}
	}

	clean := "package sim\n\nfunc Run(m map[string]int) int { return len(m) }\n"
	code, out = vet(t, map[string]string{"internal/core/core.go": core, "internal/sim/sim.go": clean}, "./...")
	if code != 0 || out != "" {
		t.Errorf("exit %d on a clean tree, want 0 and no output; got:\n%s", code, out)
	}

	if code, _ = vet(t, map[string]string{"internal/sim/sim.go": clean}, "./nosuchdir"); code != 2 {
		t.Errorf("exit %d on a pattern that resolves to nothing, want 2", code)
	}
}
