package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"elastichpc/internal/metrics"
)

// runAsMain makes the test binary stand in for the charmbench binary: a child
// started with it set runs main() on its own arguments instead of the tests.
const runAsMain = "CHARMBENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// charmbench starts the CLI with args.
func charmbench(args string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], strings.Fields(args)...)
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	return cmd
}

// TestFlagsRejectedWhereIgnored: a flag the chosen selector does not read is
// an error that names it. The two commands this one replaced ran the first
// two rows and dropped -seed. A trace path not ending in .csv was read as
// JSON, and a positional argument ended the flags: `-mode shrink extra -json
// x.json` exited 0 and wrote no report. Every row must exit 1 before anything
// reaches stdout and before any file is created.
func TestFlagsRejectedWhereIgnored(t *testing.T) {
	for _, c := range []struct{ args, names string }{
		{"-app jacobi -seed 3", "-seed"},
		{"-mode shrink -seed 3", "-seed"},
		{"-mode shrink -scenario burst", "-scenario"},
		{"-app leanmd -scenario burst", "-scenario"},
		{"-mode timeline -json x.json", "-json"},
		{"-mode shrink -availability spot", "-availability"},
		{"-app jacobi -mode shrink", "-mode"},
		{"-app leanmd -scale 64", "-scale"},
		{"-mode expand -maxpes 2", "-maxpes"},

		{"-app jacobi -trace x.json", "-trace x.json"},
		{"-mode shrink extra -json x.json", `"extra"`},
	} {
		cmd := charmbench(c.args)
		cmd.Dir = t.TempDir()
		var stderr strings.Builder
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if code := cmd.ProcessState.ExitCode(); err == nil || code != 1 {
			t.Errorf("charmbench %s: exit %d (%v), want %s rejected with exit 1", c.args, code, err, c.names)
		} else if !strings.Contains(stderr.String(), c.names) {
			t.Errorf("charmbench %s: failed without naming %s:\n%s", c.args, c.names, stderr.String())
		}
		if len(stdout) > 0 {
			t.Errorf("charmbench %s: printed before failing:\n%s", c.args, stdout)
		}
		if files, err := os.ReadDir(cmd.Dir); err != nil || len(files) > 0 {
			t.Errorf("charmbench %s: created %v (%v)", c.args, files, err)
		}
	}
}

// TestBadValuesRejectedBeforeOutput: a -scale below 1 (which divided by zero,
// or printed a header and then failed on a negative grid) and a negative
// -iters (which timed nothing and exited 0) exit 1 with an error that names
// the flag, before anything reaches stdout.
func TestBadValuesRejectedBeforeOutput(t *testing.T) {
	for _, c := range []struct{ args, names string }{
		{"-app jacobi -scale 0", "-scale"},
		{"-mode shrink -scale 0", "-scale"},
		{"-mode size -scale 0", "-scale"},
		{"-mode timeline -scale 0", "-scale"},
		{"-app jacobi -scale -2", "-scale"},
		{"-app jacobi -iters -1", "-iters"},
	} {
		cmd := charmbench(c.args)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if code := cmd.ProcessState.ExitCode(); err == nil || code != 1 {
			t.Errorf("charmbench %s: exit %d (%v), want 1", c.args, code, err)
		}
		if !strings.Contains(stderr.String(), c.names) {
			t.Errorf("charmbench %s: failed without naming %s:\n%s", c.args, c.names, stderr.String())
		}
		if len(stdout) > 0 {
			t.Errorf("charmbench %s: printed before rejecting:\n%s", c.args, stdout)
		}
	}
}

// TestSmoke runs one scaling and one rescale selector at a size that takes
// about a second and pins everything in their output that is not a timing:
// the header lines, the shape of the CSV, its deterministic columns, and the
// report's benchmark names.
func TestSmoke(t *testing.T) {
	for _, c := range []struct {
		name, args string
		header     []string
		cols       []int    // the deterministic columns
		rows       []string // what those columns hold, row by row
		names      []string
	}{
		{
			name: "jacobi", args: "-app jacobi -scale 64 -iters 2 -maxpes 2",
			header: []string{
				"# Fig 4a: Jacobi2D strong scaling; time per iteration (s); grids from Fig. 4a defaults",
				"grid,replicas,time_per_iter_s",
			},
			cols: []int{0, 1}, rows: []string{"32,2", "128,2", "256,2"},
			names: []string{"Fig4aJacobi/grid=32/replicas=2", "Fig4aJacobi/grid=128/replicas=2", "Fig4aJacobi/grid=256/replicas=2"},
		},
		{
			name: "shrink", args: "-mode shrink -scale 64 -iters 6",
			header: []string{
				"# Fig 5a: shrink to half; x = replicas before shrinking",
				"replicas,lb_s,ckpt_s,restart_s,restore_s,total_s,bytes",
			},
			cols: []int{0, 6}, rows: []string{"4,298016", "8,317504", "16,340096", "32,385280"},
			names: []string{"Fig5Rescale/shrink/replicas=4", "Fig5Rescale/shrink/replicas=8", "Fig5Rescale/shrink/replicas=16", "Fig5Rescale/shrink/replicas=32"},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			report := filepath.Join(t.TempDir(), "report.json")
			stdout, err := charmbench(c.args + " -json " + report).Output()
			if err != nil {
				t.Fatalf("charmbench %s: %v", c.args, err)
			}
			lines := strings.Split(strings.TrimSuffix(string(stdout), "\n"), "\n")
			if len(lines) != len(c.header)+len(c.rows) {
				t.Fatalf("%d lines of output, want %d:\n%s", len(lines), len(c.header)+len(c.rows), stdout)
			}
			for i, want := range c.header {
				if lines[i] != want {
					t.Errorf("header line %d is %q, want %q", i, lines[i], want)
				}
			}
			width := strings.Count(c.header[len(c.header)-1], ",") + 1
			for i, want := range c.rows {
				fields := strings.Split(lines[len(c.header)+i], ",")
				if len(fields) != width {
					t.Fatalf("row %d has %d columns, want %d: %q", i, len(fields), width, fields)
				}
				if got := fields[c.cols[0]] + "," + fields[c.cols[1]]; got != want {
					t.Errorf("row %d columns %v are %q, want %q", i, c.cols, got, want)
				}
			}
			rep, err := metrics.Read(report)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Kind != metrics.KindBench || len(rep.Benchmarks) != len(c.names) {
				t.Fatalf("report is kind %q with %d benchmarks, want %q with %d", rep.Kind, len(rep.Benchmarks), metrics.KindBench, len(c.names))
			}
			for i, want := range c.names {
				if b := rep.Benchmarks[i]; b.Name != want || b.NsPerOp <= 0 {
					t.Errorf("benchmark %d is %q at %g ns/op, want %q and a positive time", i, b.Name, b.NsPerOp, want)
				}
			}
		})
	}
}
