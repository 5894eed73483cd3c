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
// seed 7.
func TestFlagsRejectedWhereIgnored(t *testing.T) {
	rejectedBeforeOutput(t, []rejection{
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
		{"-sweep gap -seeds 0", "-seeds 0"},
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
	})
}

// TestClusterFlagsRejectedWhereIgnored: the same rule on -backend cluster.
// The first five rows were parsed and dropped before the modes declared what
// they read. The emulation has no shards, its fleet neither skews nor
// rebalances, and the sweeps and savers it has no mode for name -backend, as
// do -ckpt-period on the simulator and the backends elasticsim does not run.
func TestClusterFlagsRejectedWhereIgnored(t *testing.T) {
	rejectedBeforeOutput(t, []rejection{
		{"-backend cluster -scenario burst -seeds 2", "-seeds"},
		{"-backend cluster -table1 -ckpt-period 500", "-ckpt-period"},
		{"-backend cluster -profiles -ckpt-period 500", "-ckpt-period"},
		{"-backend cluster -scenario burst -route random", "-route"},
		{"-backend cluster -table1 -seed 3", "-seed"},

		{"-backend cluster -clusters 2 -table1", "-clusters"},
		{"-backend cluster -clusters 2 -profiles", "-clusters"},
		{"-backend cluster -clusters 2 -xlarge-timeline", "-clusters"},
		{"-backend cluster -clusters 2 -sweep gap", "-clusters"},
		{"-backend cluster -clusters 2 -availability spot", "-availability"},
		{"-backend cluster -trace x.json", "-trace x.json"},
		{"-backend cluster -sweep gap availability -seeds 0", `"availability"`},
		{"-backend cluster -clusters 3 -skew 0.5", "-skew"},
		{"-backend cluster -clusters 3 -rebalance 300", "-rebalance"},
		{"-backend cluster -scenario burst -shards 4", "-shards"},
		{"-backend cluster -sweep scenario -seeds 1", "-backend cluster: -sweep scenario"},
		{"-backend cluster -save-workload x.csv", "-backend cluster: -save-workload"},
		{"-scenario burst -ckpt-period 5", "-ckpt-period"},
		{"-backend federation", "-backend federation"},
		{"-backend bogus", "-backend bogus"},
	})
}

// TestClusterBadValuesRejectedBeforeOutput: a value no emulated run can have
// exits 1 with an error that names it, before anything reaches stdout. A
// negative -ckpt-period ran as "restart from scratch", and the
// zero-capacity trace printed its title line before failing.
func TestClusterBadValuesRejectedBeforeOutput(t *testing.T) {
	rejectedBeforeOutput(t, []rejection{
		{"-backend cluster -scenario uniform -ckpt-period -5", "-ckpt-period"},
		{"-backend cluster -clusters 0 -scenario burst", "-clusters"},
		{"-backend cluster -sweep gap -seeds -1", "-seeds -1"},
		{"-backend cluster -availability-trace testdata/zero-capacity.csv", "capacity 0"},
	})
}

// rejection is a command line the CLI must refuse, and the text its error
// must contain.
type rejection struct{ args, names string }

// rejectedBeforeOutput checks that every row exits 1 with an error naming
// what it rejects, before anything reaches stdout and before any file is
// created.
func rejectedBeforeOutput(t *testing.T, rows []rejection) {
	t.Helper()
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rows {
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
	replayGoldens(t, "", map[string]string{
		"table1":       "-table1",
		"burst-seed3":  "-scenario burst -seed 3",
		"uniform-spot": "-scenario uniform -availability spot",
		// The spelling bench/'s CLI probe uses.
		"trace-avail":        "-trace testdata/wl.csv -json $JSON -availability-trace testdata/cap.csv",
		"fleet-rebalance":    "-clusters 3 -route least_loaded -rebalance 300",
		"sweep-gap":          "-sweep gap -seeds 2 -jobs 8 -parallel 1",
		"sweep-availability": "-sweep availability -seeds 1",
		"xlarge-timeline":    "-xlarge-timeline",
	})
}

// TestClusterGoldens pins the emulation's stdout and -json report, in the
// cluster-* files. They were recorded by the command that ran it before it
// was a backend of this one: its Table 1 and Figure 9 stdout unchanged, its
// scenario and fleet tables with this command's title and fleet columns, and
// its reports under this tool's name with a "backend" param.
func TestClusterGoldens(t *testing.T) {
	replayGoldens(t, "cluster-", map[string]string{
		"table1":          "-table1 -backend cluster",
		"uniform-drain":   "-scenario uniform -availability drain -backend cluster",
		"clusters2":       "-clusters 2 -backend cluster",
		"xlarge-timeline": "-xlarge-timeline -backend cluster",
		"profiles-ascii":  "-profiles -ascii -backend cluster",
	})
}

// replayGoldens runs each case as a parallel subtest and compares its stdout
// and -json report with testdata/golden/<prefix><name>.stdout and .json. A
// case that names no report path writes it to $JSON.
func replayGoldens(t *testing.T, prefix string, cases map[string]string) {
	for name, args := range cases {
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
				file := prefix + name + ext
				want, err := os.ReadFile(filepath.Join("testdata", "golden", file))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(have, want) {
					t.Errorf("%s differs from the golden:\n%s", file, have)
				}
			}
		})
	}
}

// TestClusterSweepHoldsRecordedRows: the emulated Figure 7 sweep runs the
// simulator's grid, of which the emulation's old 0…300 s grid in 60 s steps
// is a subset. Every row that grid printed, recorded before the emulation
// was a backend of this command, appears verbatim.
func TestClusterSweepHoldsRecordedRows(t *testing.T) {
	recorded, err := os.ReadFile(filepath.Join("testdata", "golden", "cluster-sweep-gap-60s.stdout"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := elasticsim("-sweep", "gap", "-backend", "cluster", "-seeds", "1", "-parallel", "1")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	rows := map[string]bool{}
	for _, row := range strings.Split(out, "\n") {
		rows[row] = true
	}
	for _, row := range strings.Split(strings.TrimSpace(string(recorded)), "\n") {
		if !rows[row] {
			t.Errorf("recorded row %q missing from the sweep:\n%s", row, out)
		}
	}
}

// TestClusterSweepAnyParallel: pool workers run cluster emulations at the
// same time, and the sweep prints the same bytes as on one worker. Under
// -race the child is race-built too, so this runs the emulation concurrently
// under the race detector.
func TestClusterSweepAnyParallel(t *testing.T) {
	var outs []string
	for _, parallel := range []string{"1", "2"} {
		out, err := elasticsim("-sweep", "gap", "-backend", "cluster", "-seeds", "1", "-jobs", "4", "-parallel", parallel)
		if err != nil {
			t.Fatalf("-parallel %s: %v\n%s", parallel, err, out)
		}
		outs = append(outs, out)
	}
	if outs[0] != outs[1] {
		t.Errorf("-parallel 2 printed\n%s\nwant the -parallel 1 output\n%s", outs[1], outs[0])
	}
}
