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
//	    Run the equivalence matrix; on divergence, write each cell's
//	    reference and candidate streams under dir. Exit 1 on divergence.
//
// Spec flags (with -record) are runspec's Engine and EngineFleet groups:
// -backend sim|cluster|federation, -scenario uniform|burst, -jobs, -gap,
// -waves, -seed, -policy, -capacity, -rescale-gap, -shards, -streaming,
// -full, -log, -drain, -aging, -preempt; federation only: -route, -members,
// -skew, -rebalance, -migrate-running, -workers. A flag the chosen mode does
// not read is rejected.
package main

import (
	"flag"
	"fmt"
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
	spec := runspec.Spec(conformance.DefaultSpec())
	spec.Log = true
	const specFlags = runspec.Engine | runspec.EngineFleet
	spec.Bind(flag.CommandLine, specFlags)
	flag.Parse()

	// The four modes, in the order of their selector flags.
	modes := []runspec.Mode{
		{Name: "-record", Reads: specFlags, Also: []string{"out"}},
		{Name: "-replay", Also: []string{"out", "window"}},
		{Name: "-diff", Also: []string{"window"}},
		{Name: "-matrix", Also: []string{"artifacts", "window"}},
	}
	mode, selected := 0, 0
	for i, on := range []bool{*record, *replay != "", *doDiff, *matrix} {
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

	if err := runspec.Check(flag.CommandLine, modes, mode); err != nil {
		return fail(err)
	}

	switch {
	case *doDiff:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-diff needs two stream files, got %d args", flag.NArg()))
		}
		return diffFiles(flag.Arg(0), flag.Arg(1), *window)

	case *matrix:
		return runMatrix(*artifacts, *window)

	case *replay != "":
		return replayFile(*replay, *out, *window)

	default: // -record
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
	fmt.Printf("recorded %d decisions to %s\n", len(st.Decisions), out)
	return nil
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
			path, len(recorded.Decisions))
		return 0
	}
	fmt.Printf("replay of %s DIVERGED:\n%s", path, d.Format(recorded, replayed, window))
	return 1
}

// runMatrix executes the full equivalence matrix, saving diverging streams
// under the artifacts directory.
func runMatrix(artifacts string, window int) int {
	opt := conformance.DefaultMatrixOptions()
	opt.Window = window
	fails, cases, err := conformance.RunMatrix(opt)
	if err != nil {
		return fail(err)
	}
	if len(fails) == 0 {
		fmt.Printf("conformance matrix: %d cases, all streams identical\n", cases)
		return 0
	}
	fmt.Printf("conformance matrix: %d of %d cases diverged\n", len(fails), cases)
	for i, f := range fails {
		fmt.Printf("\n--- %s (candidate %s) ---\n%s", f.Case, f.Candidate, f.Report)
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
		fmt.Printf("streams saved to %s.{ref,got}.json\n", base)
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
