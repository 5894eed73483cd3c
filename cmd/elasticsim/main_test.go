package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"elastichpc/internal/conformance"
	"elastichpc/internal/core"
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
// workloads and a recorded run's, and nothing else. It used to be accepted
// and dropped everywhere else — `-scenario burst -jobs 1000000` ran 16 jobs.
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
		} else if !strings.Contains(out, "-jobs applies to -sweep gap|rescale, -record, -record -clusters N, -record -backend cluster only") {
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

// TestRecordFlagsRejectedWhereIgnored: the same rule on -record, whose rows
// came from the conformance CLI when it recorded. The engine knobs are read
// by the record modes only (`-matrix -policy moldable` ran every policy). A
// run flag the recorded run has no setting for was recorded into the
// stream's meta and dropped from the run: the emulation has no shards or
// streaming, one cluster no fleet flag, and the emulation records no fleet.
// So are -migrate-running with no rebalancer to heed it, a second mode, a
// flag no mode has, a backend elasticsim does not run, and a negative value
// that ran as the default; -record writes no report.
func TestRecordFlagsRejectedWhereIgnored(t *testing.T) {
	rejectedBeforeOutput(t, []rejection{
		{"-table1 -policy moldable", "-policy"},
		{"-scenario burst -streaming", "-streaming"},
		{"-record x.json -clusters 3 -migrate-running", "-migrate-running"},
		{"-record x.json -table1", "exactly one"},
		// The reference scheduler is core's test oracle, not a mode.
		{"-record x.json -full", "-full"},
		{"-record x.json -backend cluster -streaming", "-streaming"},
		{"-record x.json -backend cluster -shards 4", "-shards"},
		{"-record x.json -backend sim -route least_loaded", "-route"},
		{"-record x.json -backend sim -parallel 2", "-parallel"},
		{"-record x.json -backend sim -skew 2", "-skew"},
		{"-record x.json -backend sim -rebalance 300", "-rebalance"},
		{"-record x.json -backend federation", "-backend federation"},
		{"-record x.json -backend cluster -clusters 2", "-clusters 2"},
		{"-record x.json -capacity -8", "-capacity"},
		{"-record x.json -rescale-gap -5", "-rescale-gap"},
		{"-record x.json -rescale-gap 1e300", "-rescale-gap"},
		{"-record x.json -scenario uniform -jobs 3 -gap 1e308", "-gap"},
		// The composites are fixed-size, and only burst has waves.
		{"-record x.json -scenario head-heavy -jobs 5 -gap 3", "-gap"},
		{"-record x.json -scenario uniform -waves 7", "-waves"},
		// Execute would fill the explicit 0 from the defaults.
		{"-record x.json -clusters 0", "-clusters"},
		{"-record x.json -json r.json", "-json"},
		{"-record x.json -seeds 3", "-seeds"},
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
		// The README's walkthroughs: the scenario sweep, a saved trace
		// replayed (testdata/wl.csv is the burst workload -save-workload
		// writes), and one bursty workload routed across a skewed fleet.
		"sweep-scenario":          "-sweep scenario -seeds 3",
		"trace":                   "-trace testdata/wl.csv",
		"fleet-skew-round-robin":  "-clusters 4 -skew 0.5 -scenario burst -route round_robin",
		"fleet-skew-least-loaded": "-clusters 4 -skew 0.5 -scenario burst -route least_loaded",
		"fleet-skew-priority":     "-clusters 4 -skew 0.5 -scenario burst -route priority",
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
		"trace":           "-trace testdata/wl.csv -backend cluster",
	})
}

// TestSaveWorkloadWritesTheTrace: the README saves a workload and replays it;
// -save-workload writes the burst scenario's seed-7 workload as
// testdata/wl.csv, the trace the -trace goldens replay, byte for byte.
func TestSaveWorkloadWritesTheTrace(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-scenario", "burst", "-save-workload", "wl.csv")
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil || string(out) != "wrote wl.csv\n" {
		t.Fatalf("-save-workload wl.csv: %v\n%s", err, out)
	}
	if !bytes.Equal(read(t, filepath.Join(dir, "wl.csv")), read(t, filepath.Join("testdata", "wl.csv"))) {
		t.Error("the saved workload differs from testdata/wl.csv")
	}
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

// record runs `elasticsim -record file args` in dir and returns its stdout.
func record(t *testing.T, dir, file, args string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-record", file}, strings.Fields(args)...)...)
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("elasticsim -record %s %s: %v\n%s", file, args, err, stderr.String())
	}
	return out
}

// TestRecordGolden pins -record end to end on a fleet whose last member runs
// the drain profile: stdout, which counts the members' decisions, and the
// stream, the one conftest's replay golden re-runs. The workload is spelled
// out because the default 16-job run ends before the profile's first drain
// window. A change to how a spec becomes its inputs moves this stream and the
// cluster-uniform-drain golden alike.
func TestRecordGolden(t *testing.T) {
	dir := t.TempDir()
	out := record(t, dir, "stream.json", "-clusters 3 -rebalance 300 -availability drain -jobs 60 -gap 45 -seed 1")
	if !bytes.Equal(out, read(t, filepath.Join("testdata", "golden", "record.stdout"))) {
		t.Errorf("-record stdout differs from the golden:\n%s", out)
	}
	if !bytes.Equal(read(t, filepath.Join(dir, "stream.json")), read(t, filepath.Join("..", "conftest", "testdata", "golden", "stream.json"))) {
		t.Error("recorded stream differs from ../conftest/testdata/golden/stream.json")
	}
}

// read returns the file's bytes.
func read(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRecordIsExecute: -record writes the stream the conformance harness
// executes for the same run, spelled as a spec — elasticsim's defaults (seed
// 7, the elastic policy, the log on) and its flags reach the run and its
// meta. The rows are the runs the conformance CLI's tests record: a cluster
// run with and without a rescale gap, seed 0 on both backends and a fleet,
// and a sharded burst; then one with the log off.
func TestRecordIsExecute(t *testing.T) {
	dir := t.TempDir()
	for args, spec := range map[string]conformance.RunSpec{
		"-backend cluster -jobs 12":                 {Backend: "cluster", Jobs: 12, Seed: 7, Log: true},
		"-backend cluster -jobs 12 -rescale-gap 30": {Backend: "cluster", Jobs: 12, Seed: 7, RescaleGap: 30, Log: true},
		"-backend sim -jobs 12 -seed 0":             {Jobs: 12, Log: true},
		"-backend cluster -jobs 12 -seed 0":         {Backend: "cluster", Jobs: 12, Log: true},
		"-clusters 3 -jobs 12 -seed 0":              {Clusters: 3, Jobs: 12, Log: true},
		"-scenario burst -policy elastic -shards 8": {Scenario: "burst", Shards: 8, Seed: 7, Log: true},
		"-availability spot -policy moldable -log=false": {
			Availability: "spot", Policy: core.Moldable, Seed: 7},
	} {
		record(t, dir, "got.json", args)
		st, err := spec.Execute()
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := st.Save(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(read(t, filepath.Join(dir, "got.json")), want.Bytes()) {
			t.Errorf("elasticsim -record got.json %s: not the stream of %+v", args, spec)
		}
	}
}
