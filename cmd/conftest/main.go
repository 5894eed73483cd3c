// Command conftest records, replays, and diffs scheduler decision streams,
// and runs the full conformance equivalence matrix — the CLI face of
// internal/conformance, so a failing CI cell reproduces locally from an
// artifact.
//
// Modes (exactly one):
//
//	conftest -record [spec flags] [-out stream.json]
//	    Execute the spec and write its recorded stream.
//	conftest -replay stream.json [-out replayed.json]
//	    Re-execute the run described by a stream's meta and diff the new
//	    stream against the recording. Exit 1 on divergence.
//	conftest -diff a.json b.json
//	    Structurally diff two recorded streams. Exit 1 on divergence.
//	conftest -matrix [-artifacts dir]
//	    Run the equivalence matrix; on divergence, print the -record line
//	    that re-runs each diverging candidate and, with -artifacts, write
//	    the cell's reference and candidate streams under dir and print the
//	    -replay line for the candidate's. Exit 1 on divergence.
//
// Spec flags (with -record) are elasticsim's, with the same names, defaults
// and inputs — runspec's CLI groups — plus the engine knobs only the harness
// varies (runspec.Engine): -backend sim|cluster; -scenario or -trace (a
// generated scenario sized by -jobs and -gap, burst by -waves too, 0 = the
// scenario's default; the composites head-heavy and tail-heavy and a trace
// have a size of their own); -seed (0 included); -availability and its
// tuning; -policy, -capacity, -rescale-gap, -log; on the simulator -shards
// and -streaming; a fleet of simulators is -clusters N (N > 1), with -route,
// -skew, -rebalance, -migrate-running and -parallel, and runs the capacity
// profile on its last member. A flag the chosen mode, backend or scenario
// does not read is rejected.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"elastichpc/internal/conformance"
	"elastichpc/internal/runspec"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		record = flag.Bool("record", false, "execute the spec flags and write the recorded stream")
		replay = flag.String("replay", "", "stream file to re-execute from its meta and verify")
		doDiff = flag.Bool("diff", false, "diff the two stream files given as arguments")
		matrix = flag.Bool("matrix", false, "run the conformance equivalence matrix")

		out       = flag.String("out", "", "output path for the recorded stream (default stdout)")
		artifacts = flag.String("artifacts", "", "directory for diverging matrix streams")
		window    = flag.Int("window", conformance.DefaultWindow, "decisions of context around a divergence")
	)
	// The recorded stream is the point of -record, so its log defaults on.
	spec := runspec.Default()
	spec.Log = true
	spec.Bind(flag.CommandLine, runspec.CLI|runspec.Engine)
	flag.Parse()

	// The modes: three in the order of their selector flags, then -record,
	// one per kind of run, each reading the spec flags it has a setting for
	// (the emulation has no shards or streaming, one cluster no fleet).
	const one = runspec.Scenario | runspec.Seed | runspec.Jobs | runspec.Availability | runspec.Backend
	modes := []runspec.Mode{
		{Name: "-replay", Also: []string{"out", "window"}},
		{Name: "-diff", Also: []string{"window"}, Args: 2},
		{Name: "-matrix", Also: []string{"artifacts", "window"}},
		{Name: "-record", Reads: one | runspec.Shards | runspec.Engine, Also: []string{"clusters", "out"}},
		{Name: "-record -clusters N", Reads: runspec.CLI | runspec.Engine, Also: []string{"out"}},
		{Name: "-record -backend cluster", Reads: one, Also: []string{"gap", "waves", "policy", "capacity",
			"rescale-gap", "log", "clusters", "out"}},
	}
	mode, selected := 0, 0
	for i, on := range []bool{*replay != "", *doDiff, *matrix, *record} {
		if on {
			mode = i
			selected++
		}
	}
	if selected != 1 {
		fmt.Fprintln(os.Stderr, "conftest: exactly one of -record, -replay, -diff, -matrix is required")
		flag.Usage()
		return 2
	}
	// -record selected the one-simulator mode; an unknown backend keeps it,
	// and Execute names the backend.
	switch {
	case !*record:
	case spec.Backend == "cluster":
		mode = len(modes) - 1
	case spec.Clusters > 1:
		mode = len(modes) - 2
	}

	if err := runspec.Check(flag.CommandLine, modes, mode); err != nil {
		return fail(err)
	}

	switch {
	case *doDiff:
		return diffFiles(flag.Arg(0), flag.Arg(1), *window)

	case *matrix:
		return runMatrix(os.Stdout, conformance.Cases(conformance.DefaultMatrixOptions()), *artifacts, *window)

	case *replay != "":
		return replayFile(*replay, *out, *window)

	default: // -record
		// Execute fills a zero count from the defaults, so an explicit
		// -clusters 0 is rejected here, as the flags parsed it.
		if err := spec.Validate(); err != nil {
			return fail(err)
		}
		st, err := conformance.RunSpec(spec).Execute()
		if err != nil {
			return fail(err)
		}
		if err := emit(st, *out); err != nil {
			return fail(err)
		}
		return 0
	}
}

// fail reports an operational error (as opposed to a divergence, exit 1).
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "conftest:", err)
	return 2
}

// emit writes a stream to the -out path, or stdout when unset.
func emit(st *conformance.Stream, out string) error {
	if out == "" {
		return st.Save(os.Stdout)
	}
	if err := st.SaveFile(out); err != nil {
		return err
	}
	fmt.Printf("recorded %d decisions to %s\n", decisions(st), out)
	return nil
}

// decisions counts a stream's decisions: its own and its members'.
func decisions(st *conformance.Stream) int {
	n := len(st.Decisions)
	for _, m := range st.Members {
		n += len(m.Decisions)
	}
	return n
}

// diffFiles loads and structurally diffs two streams.
func diffFiles(aPath, bPath string, window int) int {
	a, err := conformance.LoadFile(aPath)
	if err != nil {
		return fail(err)
	}
	b, err := conformance.LoadFile(bPath)
	if err != nil {
		return fail(err)
	}
	d := conformance.Compare(a, b)
	fmt.Print(d.Format(a, b, window))
	if d.Empty() {
		return 0
	}
	return 1
}

// replayFile re-executes a recorded stream's spec and diffs old vs new.
func replayFile(path, out string, window int) int {
	recorded, err := conformance.LoadFile(path)
	if err != nil {
		return fail(err)
	}
	spec, err := conformance.SpecFromMeta(recorded.Meta)
	if err != nil {
		return fail(err)
	}
	replayed, err := spec.Execute()
	if err != nil {
		return fail(err)
	}
	if out != "" {
		if err := replayed.SaveFile(out); err != nil {
			return fail(err)
		}
	}
	d := conformance.Compare(recorded, replayed)
	if d.Empty() {
		fmt.Printf("replay of %s reproduced the recording: %d decisions identical\n",
			path, decisions(recorded))
		return 0
	}
	fmt.Printf("replay of %s DIVERGED:\n%s", path, d.Format(recorded, replayed, window))
	return 1
}

// runMatrix executes the matrix's cases, printing each divergence with the
// command that re-runs its candidate and saving the diverging streams under
// the artifacts directory, each with the command that replays it.
func runMatrix(w io.Writer, cases []conformance.Case, artifacts string, window int) int {
	fails, err := conformance.RunMatrix(cases, window)
	if err != nil {
		return fail(err)
	}
	if len(fails) == 0 {
		refs := 0
		for _, c := range cases {
			refs += len(c.Refs)
		}
		fmt.Fprintf(w, "conformance matrix: %d cases, %d reference runs, all streams identical\n", len(cases), refs)
		return 0
	}
	fmt.Fprintf(w, "conformance matrix: %d of %d cases diverged\n", len(fails), len(cases))
	for i, f := range fails {
		fmt.Fprintf(w, "\n--- %s (candidate %s) ---\n%s", f.Case, f.Candidate, f.Report)
		fmt.Fprintf(w, "re-run the candidate: %s\n", f.Reproduce)
		if artifacts == "" {
			continue
		}
		base := filepath.Join(artifacts, fmt.Sprintf("%03d-%s-%s",
			i, sanitize(f.Case), sanitize(f.Candidate)))
		if err := os.MkdirAll(artifacts, 0o755); err != nil {
			return fail(err)
		}
		if err := saveStreams(base, f.Ref, f.Got); err != nil {
			return fail(err)
		}
		fmt.Fprintf(w, "streams saved to %s.{ref,got}.json\n", base)
		fmt.Fprintf(w, "replay the candidate: conftest -replay %s.got.json\n", base)
	}
	return 1
}

// saveStreams writes a diverging pair as <base>.ref.json then
// <base>.got.json, in that fixed order, so which SaveFile error surfaces
// first does not vary run to run.
func saveStreams(base string, ref, got *conformance.Stream) error {
	if err := ref.SaveFile(base + ".ref.json"); err != nil {
		return err
	}
	return got.SaveFile(base + ".got.json")
}

// sanitize makes a case name filesystem-safe.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}
