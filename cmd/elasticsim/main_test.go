package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runAsMain makes the test binary stand in for the elasticsim binary: a child
// started with it set runs main() on its own arguments instead of the tests.
const runAsMain = "ELASTICSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// elasticsim runs the CLI with args and returns its combined output.
func elasticsim(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestJobsFlagRejectedWhereIgnored: -jobs sizes the gap and rescale sweeps'
// workloads and nothing else. It used to be accepted and dropped everywhere
// else — `-scenario burst -jobs 1000000` ran 16 jobs.
func TestJobsFlagRejectedWhereIgnored(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "burst", "-jobs", "1000"},
		{"-table1", "-jobs", "8"},
		{"-sweep", "scenario", "-seeds", "1", "-jobs", "8"},
		{"-jobs", "16"},
	} {
		out, err := elasticsim(args...)
		if err == nil {
			t.Errorf("elasticsim %s: accepted, want -jobs rejected", strings.Join(args, " "))
		} else if !strings.Contains(out, "-jobs applies to -sweep gap|rescale only") {
			t.Errorf("elasticsim %s: failed without naming -jobs:\n%s", strings.Join(args, " "), out)
		}
	}
	for _, sweep := range []string{"gap", "rescale"} {
		out, err := elasticsim("-sweep", sweep, "-seeds", "1", "-jobs", "4", "-parallel", "1")
		if err != nil {
			t.Errorf("elasticsim -sweep %s -jobs 4: %v\n%s", sweep, err, out)
		}
	}
}

// TestFlagsRejectedWhereIgnored: a flag the chosen mode does not read, or a
// value that tunes something the run did not select, is an error that names
// the flag — never parsed and dropped. The first six rows were accepted
// before the modes declared what they read (`-scenario burst -seeds 5` ran
// one seed and stamped "seeds": "5" into the report); the rest are the
// rejections that already existed, which must keep rejecting. The next two
// are a value no workload can have: a sweep over zero jobs used to print a
// table of zeros and exit 0. The next three printed the fleet table's headers
// before failing, and the -skew one failed without naming the flag. The four
// trace paths not ending in .csv were read or written as JSON, and a
// positional argument ended the flags: `-scenario burst extra -seed 3` ran
// seed 7. Every row must exit 1 before anything reaches stdout and before any
// file is created.
func TestFlagsRejectedWhereIgnored(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ args, names string }{
		{"-scenario burst -seeds 5", "-seeds"},
		{"-trace testdata/wl.csv -seeds 5", "-seeds"},
		{"-clusters 3 -seeds 5", "-seeds"},
		{"-scenario burst -parallel 2", "-parallel"},
		{"-sweep scenario -seeds 1 -seed 3", "-seed "},
		{"-scenario burst -mttf 900", "-mttf"},
		{"-scenario burst -trace testdata/wl.csv", "-trace"},

		{"-clusters 0 -scenario burst", "-clusters"},
		{"-clusters 3 -sweep scenario", "-clusters"},
		{"-clusters 3 -table1", "-clusters"},
		{"-clusters 3 -save-workload x.json", "-clusters"},
		{"-scenario burst -route random", "-route"},
		{"-scenario burst -skew 0.5", "-skew"},
		{"-scenario burst -rebalance 300", "-rebalance"},
		{"-clusters 3 -migrate-running", "-migrate-running"},
		{"-sweep federation -seeds 1 -rebalance 300", "-rebalance"},
		{"-table1 -shards 4", "-shards"},
		{"-clusters 3 -shards 4", "-shards"},
		{"-sweep gap -seeds 1 -shards 4", "-shards"},
		{"-scenario burst -shards -3", "-shards -3"},
		{"-sweep gap -seeds 1 -parallel -3", "-parallel"},
		{"-save-availability x.csv", "-availability"},
		{"-sweep gap -seeds 1 -scenario burst", "-scenario"},
		{"-sweep rescale -seeds 1 -availability spot", "-availability"},
		{"-sweep federation -seeds 1 -availability spot", "-availability"},
		{"-sweep scenario -seeds 1 -availability spot", "-availability"},
		{"-sweep bogus", "bogus"},
		{"-table1 -availability spot", "-availability"},
		{"-clusters 3 -availability spot", "-availability"},
		{"-scenario burst -save-workload " + os.DevNull + " -json x.json", "-json"},

		{"-sweep gap -seeds 1 -jobs 0", "jobs=0"},
		{"-sweep rescale -seeds 1 -jobs -3", "jobs=-3"},

		{"-clusters 3 -rebalance -300", "-rebalance -300"},
		{"-clusters 3 -rebalance NaN", "-rebalance NaN"},
		{"-clusters 3 -skew -5", "-skew -5"},

		{"-trace x.json", "-trace x.json"},
		{"-availability-trace x.json", "-availability-trace x.json"},
		{"-scenario burst -save-workload x.json", "-save-workload x.json"},
		{"-availability spot -save-availability cap.JSON", "-save-availability cap.JSON"},
		{"-scenario burst extra -seed 3", `"extra"`},
	} {
		args := strings.Fields(strings.ReplaceAll(c.args, "testdata", testdata))
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), runAsMain+"=1")
		cmd.Dir = t.TempDir()
		var stderr strings.Builder
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if code := cmd.ProcessState.ExitCode(); err == nil || code != 1 {
			t.Errorf("elasticsim %s: exit %d (%v), want %s rejected with exit 1", c.args, code, err, c.names)
		} else if !strings.Contains(stderr.String(), c.names) {
			t.Errorf("elasticsim %s: failed without naming %s:\n%s", c.args, c.names, stderr.String())
		}
		if len(stdout) > 0 {
			t.Errorf("elasticsim %s: printed before failing:\n%s", c.args, stdout)
		}
		if files, err := os.ReadDir(cmd.Dir); err != nil || len(files) > 0 {
			t.Errorf("elasticsim %s: created %v (%v)", c.args, files, err)
		}
	}
}

// TestGoldens pins stdout and the -json report byte for byte. The files were
// recorded at the commit before the CLIs moved onto runspec; only the
// reports' "params" blocks were re-recorded since (they now list the flags
// the mode read instead of a fixed jobs/seeds/seed stamp).
func TestGoldens(t *testing.T) {
	for name, args := range map[string]string{
		"table1":       "-table1",
		"burst-seed3":  "-scenario burst -seed 3",
		"uniform-spot": "-scenario uniform -availability spot",
		// The spelling bench/'s CLI probe uses.
		"trace-avail":        "-trace testdata/wl.csv -json $JSON -availability-trace testdata/cap.csv",
		"fleet-rebalance":    "-clusters 3 -route least_loaded -rebalance 300",
		"sweep-gap":          "-sweep gap -seeds 2 -jobs 8 -parallel 1",
		"sweep-availability": "-sweep availability -seeds 1",
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			report := filepath.Join(t.TempDir(), "report.json")
			if !strings.Contains(args, "$JSON") {
				args += " -json $JSON"
			}
			cmd := exec.Command(os.Args[0], strings.Fields(strings.ReplaceAll(args, "$JSON", report))...)
			cmd.Env = append(os.Environ(), runAsMain+"=1")
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("elasticsim %s: %v", args, err)
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
