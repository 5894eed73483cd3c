package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"elastichpc/internal/conformance"
)

// TestSaveStreamsOrderDeterministic pins the artifact write order: ref
// first, then got. The pre-fix code ranged a two-entry map, so the pair hit
// disk — and error reporting picked a file — in per-run random order.
func TestSaveStreamsOrderDeterministic(t *testing.T) {
	dir := t.TempDir()
	ref := &conformance.Stream{Version: conformance.StreamVersion, Label: "ref"}
	got := &conformance.Stream{Version: conformance.StreamVersion, Label: "got"}
	base := filepath.Join(dir, "case")
	if err := saveStreams(base, ref, got); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".ref.json", ".got.json"} {
		data, err := os.ReadFile(base + suffix)
		if err != nil {
			t.Fatalf("expected %s%s written: %v", base, suffix, err)
		}
		want := strings.TrimSuffix(strings.TrimPrefix(suffix, "."), ".json")
		if !strings.Contains(string(data), `"label": "`+want+`"`) && !strings.Contains(string(data), `"label":"`+want+`"`) {
			t.Fatalf("%s does not carry label %q:\n%s", suffix, want, data)
		}
	}

	// With an unwritable base every save fails; the error must always name
	// the ref file — the first of the fixed order — never the got file.
	bad := filepath.Join(dir, "missing", "case")
	for i := 0; i < 8; i++ {
		err := saveStreams(bad, ref, got)
		if err == nil {
			t.Fatal("expected an error for an unwritable artifact base")
		}
		if !strings.Contains(err.Error(), "case.ref.json") {
			t.Fatalf("error does not deterministically name the ref file: %v", err)
		}
	}
}

// runAsMain makes the test binary stand in for the conftest binary: a child
// started with it set runs main() on its own arguments instead of the tests.
const runAsMain = "CONFTEST_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
	}
	os.Exit(m.Run())
}

// conftest starts the CLI with args in dir.
func conftest(dir, args string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], strings.Fields(args)...)
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	cmd.Dir = dir
	return cmd
}

// TestFlagsRejectedWhereIgnored: spec flags describe the run -record
// executes; the other modes take theirs from a stream or the fixed matrix, so
// a spec flag there — `-matrix -policy moldable` still ran every policy — is
// an error naming the flag, as is -migrate-running with no rebalancer to
// heed it. So is a spec flag the chosen backend or a single cluster has no
// setting for (each was recorded into the stream's meta and dropped from the
// run), a backend elasticsim does not run, and a negative value that ran as
// the default. Every rejection exits 2, conftest's code for
// an operational error, names the flag on stderr and prints nothing to
// stdout.
func TestFlagsRejectedWhereIgnored(t *testing.T) {
	for _, c := range []struct{ args, names string }{
		{"-matrix -policy moldable", "-policy"},
		{"-diff -seed 3 a.json b.json", "-seed"},
		{"-replay testdata/golden/stream.json -jobs 12", "-jobs"},
		{"-record -clusters 3 -migrate-running", "-migrate-running"},
		{"-matrix -out x.json", "-out"},
		{"-record -matrix", "exactly one"},
		// The reference scheduler is core's test oracle, not a mode.
		{"-record -full", "-full"},
		{"-record -backend cluster -streaming", "-streaming"},
		{"-record -backend cluster -shards 4", "-shards"},
		{"-record -backend sim -route least_loaded", "-route"},
		{"-record -backend sim -parallel 2", "-parallel"},
		{"-record -backend sim -skew 2", "-skew"},
		{"-record -backend sim -rebalance 300", "-rebalance"},
		{"-record -backend federation", "-backend federation"},
		{"-record -backend cluster -clusters 2", "-clusters 2"},
		{"-record -capacity -8", "-capacity"},
		{"-record -rescale-gap -5", "-rescale-gap"},
		{"-record -rescale-gap 1e300", "-rescale-gap"},
		{"-record -scenario uniform -jobs 3 -gap 1e308", "-gap"},
		// The composites are fixed-size, and only burst has waves.
		{"-record -scenario head-heavy -jobs 5 -gap 3", "-gap"},
		{"-record -scenario uniform -waves 7", "-waves"},
		// Execute would fill the explicit 0 from the defaults.
		{"-record -clusters 0", "-clusters"},
		// The arguments end the flags, so -window would not be parsed.
		{"-diff a.json b.json -window 3", `"-window"`},
	} {
		cmd := conftest("", c.args)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if code := cmd.ProcessState.ExitCode(); err == nil || code != 2 {
			t.Errorf("conftest %s: exit %d (%v), want %s rejected with exit 2", c.args, code, err, c.names)
		} else if !strings.Contains(stderr.String(), c.names) {
			t.Errorf("conftest %s: failed without naming %s:\n%s", c.args, c.names, stderr.String())
		}
		if len(stdout) > 0 {
			t.Errorf("conftest %s: printed before failing:\n%s", c.args, stdout)
		}
	}
}

// TestRecordReplayGolden pins -record and -replay end to end on a fleet
// whose last member runs elasticsim's drain profile: the recorded stream and
// both stdouts, which count the members' decisions, and the stream replays.
// The workload is spelled out because the default 16-job run ends before the
// profile's first drain window. A change to how a spec becomes its inputs
// moves this stream and elasticsim's cluster-uniform-drain golden alike.
func TestRecordReplayGolden(t *testing.T) {
	golden := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	dir := t.TempDir()
	out, err := conftest(dir, "-record -clusters 3 -rebalance 300 -availability drain -jobs 60 -gap 45 -seed 1 -out stream.json").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, golden("record.stdout")) {
		t.Errorf("-record stdout differs from the golden:\n%s", out)
	}
	stream, err := os.ReadFile(filepath.Join(dir, "stream.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream, golden("stream.json")) {
		t.Error("recorded stream differs from testdata/golden/stream.json")
	}
	if err := os.WriteFile(filepath.Join(dir, "stream.json"), golden("stream.json"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = conftest(dir, "-replay stream.json").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, golden("replay.stdout")) {
		t.Errorf("-replay stdout differs from the golden:\n%s", out)
	}
}

// TestDiffAndReplayFailOnMutatedStream: the CLI fails when it should. One
// decision's replica count flipped in a saved recording makes -diff exit 1
// naming that decision's index, and -replay print DIVERGED and exit 1.
func TestDiffAndReplayFailOnMutatedStream(t *testing.T) {
	dir := t.TempDir()
	if out, err := conftest(dir, "-record -out rec.json").CombinedOutput(); err != nil {
		t.Fatalf("-record: %v\n%s", err, out)
	}
	st, err := conformance.LoadFile(filepath.Join(dir, "rec.json"))
	if err != nil {
		t.Fatal(err)
	}
	k := len(st.Decisions) / 2
	st.Decisions[k].Replicas++
	if err := st.SaveFile(filepath.Join(dir, "mut.json")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ args, wants string }{
		{"-diff rec.json mut.json", fmt.Sprintf("decisions[%d]", k)},
		{"-replay mut.json", "DIVERGED"},
	} {
		out, err := conftest(dir, c.args).Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("conftest %s: err = %v, want exit status 1\n%s", c.args, err, out)
		}
		if !strings.Contains(string(out), c.wants) {
			t.Errorf("conftest %s: stdout does not say %s:\n%s", c.args, c.wants, out)
		}
	}
	if out, err := conftest(dir, "-diff rec.json rec.json").Output(); err != nil {
		t.Errorf("-diff of a stream against itself: %v\n%s", err, out)
	}
}

// TestClusterReadsRescaleGap: -rescale-gap reaches the emulation — it was
// recorded into the cluster stream's meta and dropped from the run.
func TestClusterReadsRescaleGap(t *testing.T) {
	dir := t.TempDir()
	for _, args := range []string{
		"-record -backend cluster -jobs 12 -out plain.json",
		"-record -backend cluster -jobs 12 -rescale-gap 30 -out gap.json",
	} {
		if out, err := conftest(dir, args).CombinedOutput(); err != nil {
			t.Fatalf("conftest %s: %v\n%s", args, err, out)
		}
	}
	out, err := conftest(dir, "-diff plain.json gap.json").Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("a 30 s rescale gap recorded the default run: err = %v\n%s", err, out)
	}
}

// TestRecordSeedZero: -seed 0 is a seed. On either backend and on a fleet
// its stream differs from seed 1's — it was byte-identical, the spec's zero
// seed resolved to the default — carries seed 0 in its meta, and -replay
// re-runs seed 0.
func TestRecordSeedZero(t *testing.T) {
	dir := t.TempDir()
	for backend, run := range map[string]string{"sim": "-backend sim", "cluster": "-backend cluster", "fleet": "-clusters 3"} {
		for _, seed := range []string{"0", "1"} {
			args := fmt.Sprintf("-record %s -jobs 12 -seed %s -out %s%s.json", run, seed, backend, seed)
			if out, err := conftest(dir, args).CombinedOutput(); err != nil {
				t.Fatalf("conftest %s: %v\n%s", args, err, out)
			}
		}
		st, err := conformance.LoadFile(filepath.Join(dir, backend+"0.json"))
		if err != nil {
			t.Fatal(err)
		}
		if st.Meta["seed"] != "0" {
			t.Errorf("%s: the seed-0 stream's meta says seed %q", backend, st.Meta["seed"])
		}
		out, err := conftest(dir, "-diff "+backend+"0.json "+backend+"1.json").Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: -seed 0 recorded the seed-1 run: err = %v\n%s", backend, err, out)
		}
		if out, err := conftest(dir, "-replay "+backend+"0.json").CombinedOutput(); err != nil {
			t.Errorf("%s: the seed-0 stream does not replay: %v\n%s", backend, err, out)
		}
	}
}

// TestMatrixDivergenceReproduces plants a candidate that really diverges — a
// shorter rescale gap than its reference's — and follows what -matrix prints:
// the -record line re-runs the candidate, and diffing that against the saved
// reference reproduces the matrix's report byte for byte; the -replay line
// re-executes the saved candidate stream and reproduces it.
func TestMatrixDivergenceReproduces(t *testing.T) {
	dir := t.TempDir()
	planted := conformance.Case{
		Name: "planted",
		Refs: []conformance.Ref{{Name: "planted", Spec: conformance.RunSpec{
			Backend: "sim", Scenario: "burst", Jobs: 24, Waves: 3, Gap: 600, Seed: 3, Log: true}}},
		Candidates: []conformance.Candidate{{Name: "gap60",
			Change: func(s *conformance.RunSpec) { s.RescaleGap = 60 }}},
	}
	var out bytes.Buffer
	if code := runMatrix(&out, []conformance.Case{planted}, dir, 3); code != 1 {
		t.Fatalf("runMatrix exit %d, want 1:\n%s", code, out.String())
	}
	var record, replay string
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "re-run the candidate: conftest "); ok {
			record = rest
		}
		if rest, ok := strings.CutPrefix(line, "replay the candidate: conftest "); ok {
			replay = rest
		}
	}
	if record == "" || replay == "" {
		t.Fatalf("no -record or -replay line printed:\n%s", out.String())
	}
	refs, err := filepath.Glob(filepath.Join(dir, "*.ref.json"))
	if err != nil || len(refs) != 1 {
		t.Fatalf("saved references %v (%v), want one", refs, err)
	}

	if o, err := conftest(dir, record+" -out rerun.json").CombinedOutput(); err != nil {
		t.Fatalf("conftest %s: %v\n%s", record, err, o)
	}
	diff, err := conftest(dir, "-diff -window 3 "+refs[0]+" rerun.json").Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("the re-run candidate matches its reference: err = %v\n%s", err, diff)
	}
	if !strings.Contains(out.String(), "---\n"+string(diff)+"re-run") {
		t.Errorf("-diff of the re-run is not the matrix's report:\n%s\nmatrix printed:\n%s", diff, out.String())
	}

	o, err := conftest(dir, replay).Output()
	if err != nil || !strings.Contains(string(o), "reproduced the recording") {
		t.Errorf("conftest %s: %v\n%s", replay, err, o)
	}
}
