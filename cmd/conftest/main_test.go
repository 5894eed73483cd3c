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
// heed it.
func TestFlagsRejectedWhereIgnored(t *testing.T) {
	for _, c := range []struct{ args, names string }{
		{"-matrix -policy moldable", "-policy"},
		{"-diff -seed 3 a.json b.json", "-seed"},
		{"-replay testdata/golden/stream.json -jobs 12", "-jobs"},
		{"-record -backend federation -migrate-running", "-migrate-running"},
		{"-matrix -out x.json", "-out"},
		{"-record -matrix", "exactly one"},
	} {
		out, err := conftest("", c.args).CombinedOutput()
		if err == nil {
			t.Errorf("conftest %s: accepted, want %s rejected", c.args, c.names)
		} else if !strings.Contains(string(out), c.names) {
			t.Errorf("conftest %s: failed without naming %s:\n%s", c.args, c.names, out)
		}
	}
}

// TestRecordReplayGolden pins -record and -replay end to end: the recorded
// stream and both stdouts are the bytes the commit before the spec moved onto
// runspec produced, but for one Meta key (rebalance_every became rebalance,
// the flag's name), and the stream replays.
func TestRecordReplayGolden(t *testing.T) {
	golden := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	dir := t.TempDir()
	out, err := conftest(dir, "-record -backend federation -rebalance 300 -out stream.json").Output()
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
