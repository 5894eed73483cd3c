package elastichpc

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// reproducible are the examples that run on the virtual clock only, so two
// runs print the same bytes. leanmd and jacobi2d run the real runtime and
// print host timings.
var reproducible = map[string]bool{"faulttolerance": true, "priorityburst": true}

// TestExamplesRun: every program under examples/ builds against the packages
// as they are, exits 0 and prints something — nothing else executes them —
// and the virtual-clock ones print the same thing twice.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every example; skipped under -short")
	}
	run := func(t *testing.T, name string) []byte {
		var stderr bytes.Buffer
		cmd := exec.Command("go", "run", "./examples/"+name)
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go run ./examples/%s: %v\n%s", name, err, stderr.Bytes())
		}
		if len(bytes.TrimSpace(out)) == 0 {
			t.Fatalf("go run ./examples/%s printed nothing", name)
		}
		return out
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			first := run(t, name)
			if reproducible[name] && !bytes.Equal(first, run(t, name)) {
				t.Errorf("go run ./examples/%s printed two different outputs", name)
			}
		})
	}
}
