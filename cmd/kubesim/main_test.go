package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runAsMain makes the test binary stand in for the kubesim binary: a child
// started with it set runs main() on its own arguments instead of the tests.
const runAsMain = "KUBESIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// kubesim starts the CLI with args.
func kubesim(args string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], strings.Fields(args)...)
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	return cmd
}

// TestFlagsRejectedWhereIgnored: a flag the chosen mode does not read is an
// error that names it. The first five rows were parsed and dropped before the
// modes declared what they read; the next six already rejected and still
// must. A trace path not ending in .csv was read as JSON, and a positional
// argument ended the flags: `-sweep availability -seeds 0` ran the gap sweep
// over the default 3 seeds. Every row must exit 1 before anything reaches
// stdout and before any file is created.
func TestFlagsRejectedWhereIgnored(t *testing.T) {
	for _, c := range []struct{ args, names string }{
		{"-scenario burst -seeds 2", "-seeds"},
		{"-table1 -ckpt-period 500", "-ckpt-period"},
		{"-profiles -ckpt-period 500", "-ckpt-period"},
		{"-scenario burst -route random", "-route"},
		{"-table1 -seed 3", "-seed"},

		{"-clusters 0 -scenario burst", "-clusters"},
		{"-clusters 2 -table1", "-clusters"},
		{"-clusters 2 -profiles", "-clusters"},
		{"-clusters 2 -xlarge-timeline", "-clusters"},
		{"-clusters 2 -sweep", "-clusters"},
		{"-clusters 2 -availability spot", "-availability"},

		{"-trace x.json", "-trace x.json"},
		{"-sweep availability -seeds 0", `"availability"`},
		{"-sweep -seeds -1", "-seeds -1"},
	} {
		cmd := kubesim(c.args)
		cmd.Dir = t.TempDir()
		var stderr strings.Builder
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if code := cmd.ProcessState.ExitCode(); err == nil || code != 1 {
			t.Errorf("kubesim %s: exit %d (%v), want %s rejected with exit 1", c.args, code, err, c.names)
		} else if !strings.Contains(stderr.String(), c.names) {
			t.Errorf("kubesim %s: failed without naming %s:\n%s", c.args, c.names, stderr.String())
		}
		if len(stdout) > 0 {
			t.Errorf("kubesim %s: printed before failing:\n%s", c.args, stdout)
		}
		if files, err := os.ReadDir(cmd.Dir); err != nil || len(files) > 0 {
			t.Errorf("kubesim %s: created %v (%v)", c.args, files, err)
		}
	}
}

// TestBadValuesRejectedBeforeOutput: a negative -ckpt-period, which ran as
// "restart from scratch", exits 1 with an error that names the flag, before
// anything reaches stdout.
func TestBadValuesRejectedBeforeOutput(t *testing.T) {
	for _, c := range []struct{ args, names string }{
		{"-scenario uniform -ckpt-period -5", "-ckpt-period"},
	} {
		cmd := kubesim(c.args)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if code := cmd.ProcessState.ExitCode(); err == nil || code != 1 {
			t.Errorf("kubesim %s: exit %d (%v), want 1", c.args, code, err)
		}
		if !strings.Contains(stderr.String(), c.names) {
			t.Errorf("kubesim %s: failed without naming %s:\n%s", c.args, c.names, stderr.String())
		}
		if len(stdout) > 0 {
			t.Errorf("kubesim %s: printed before rejecting:\n%s", c.args, stdout)
		}
	}
}

// TestGoldens pins stdout and the -json report byte for byte, as recorded at
// the commit before the CLIs moved onto runspec (the reports' "params" blocks
// gained the -ckpt-period and -clusters the modes read; nothing else moved).
func TestGoldens(t *testing.T) {
	for name, args := range map[string]string{
		"table1":        "-table1",
		"uniform-drain": "-scenario uniform -availability drain",
		"clusters2":     "-clusters 2",
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			report := filepath.Join(t.TempDir(), "report.json")
			stdout, err := kubesim(args + " -json " + report).Output()
			if err != nil {
				t.Fatalf("kubesim %s: %v", args, err)
			}
			got, err := os.ReadFile(report)
			if err != nil {
				t.Fatal(err)
			}
			for ext, have := range map[string][]byte{".stdout": stdout, ".json": got} {
				want, err := os.ReadFile(filepath.Join("testdata", "golden", name+ext))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(have, want) {
					t.Errorf("%s%s differs from the golden:\n%s", name, ext, have)
				}
			}
		})
	}
}
