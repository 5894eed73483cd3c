package conformance

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// marshalIndentReference is Save as it was before it streamed: the whole
// document through encoding/json. It is the oracle Save is held to, byte for
// byte.
func marshalIndentReference(t testing.TB, s *Stream) []byte {
	t.Helper()
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	return append(data, '\n')
}

// requireSaveMatchesReference fails unless Save writes the reference's bytes,
// and returns them.
func requireSaveMatchesReference(t testing.TB, name string, s *Stream) []byte {
	t.Helper()
	var got bytes.Buffer
	if err := s.Save(&got); err != nil {
		t.Fatalf("%s: Save: %v", name, err)
	}
	want := marshalIndentReference(t, s)
	if bytes.Equal(got.Bytes(), want) {
		return want
	}
	at := 0
	for at < got.Len() && at < len(want) && got.Bytes()[at] == want[at] {
		at++
	}
	from, window := max(at-80, 0), func(b []byte) []byte { return b[max(at-80, 0):min(at+80, len(b))] }
	t.Fatalf("%s: Save differs from json.MarshalIndent at byte %d (%d vs %d bytes), from byte %d:\nSave:      %q\nreference: %q",
		name, at, got.Len(), len(want), from, window(got.Bytes()), window(want))
	return nil
}

// hostileAlphabet is every kind of byte encoding/json treats specially in a
// string — quotes, backslash, the HTML characters, control bytes, DEL,
// multi-byte runes, the two line separators it escapes, an invalid byte —
// among ones it copies.
var hostileAlphabet = []string{
	"a", "b", "z", "0", "9", "-", "_", " ", "/", "job", "cluster",
	`"`, `\`, "<", ">", "&", "\x00", "\x01", "\t", "\n", "\r", "\x1f", "\x7f",
	"é", "\u2028", "\u2029", "\xff", "\xc3",
}

func hostileString(rng *rand.Rand, maxParts int) string {
	var sb strings.Builder
	for n := rng.Intn(maxParts + 1); n > 0; n-- {
		sb.WriteString(hostileAlphabet[rng.Intn(len(hostileAlphabet))])
	}
	return sb.String()
}

// randomStream draws one stream body: any part may be nil, empty or filled.
// Every string — labels, meta, job IDs, the summary's — comes from
// hostileAlphabet; decision kinds are drawn from the scheduler's eight, the
// only ones Validate lets through.
func randomStream(rng *rand.Rand, members int) *Stream {
	s := &Stream{Version: StreamVersion, Label: hostileString(rng, 4)}
	switch rng.Intn(3) {
	case 1:
		s.Meta = map[string]string{}
	case 2:
		s.Meta = map[string]string{}
		for n := rng.Intn(5); n > 0; n-- {
			s.Meta[hostileString(rng, 3)] = hostileString(rng, 6)
		}
	}
	if rng.Intn(4) > 0 {
		s.Decisions = make([]Decision, rng.Intn(301))
		for i := range s.Decisions {
			s.Decisions[i] = Decision{
				AtNs: rng.Int63() - rng.Int63(), Kind: core.DecisionStart + core.DecisionKind(rng.Intn(8)), JobID: hostileString(rng, 5),
				Replicas: int32(rng.Intn(200) - 20), FreeSlots: int32(rng.Intn(200) - 20),
			}
		}
	}
	switch rng.Intn(3) {
	case 1:
		s.Migrations = []Migration{}
	case 2:
		for n := rng.Intn(4); n > 0; n-- {
			s.Migrations = append(s.Migrations, Migration{
				Round: rng.Intn(9), At: rng.NormFloat64() * 1e4, JobID: hostileString(rng, 5),
				From: rng.Intn(4), To: rng.Intn(4), Checkpointed: rng.Intn(2) == 0,
			})
		}
	}
	switch rng.Intn(3) {
	case 1:
		s.Summary = &Summary{}
	case 2:
		s.Summary = &Summary{
			Policy: hostileString(rng, 2), Jobs: rng.Intn(3), TotalTime: rng.ExpFloat64() * 1e5,
			Utilization: rng.Float64(), WeightSum: float64(rng.Intn(50)), GoodputFrac: rng.Float64(),
			JobsPerMember: make([]int, rng.Intn(3)), JobsDigest: hostileString(rng, 2),
		}
	}
	for i := 0; i < members; i++ {
		s.Members = append(s.Members, randomStream(rng, 0))
	}
	return s
}

// TestSaveMatchesMarshalIndent pins the streamed Save to the encoder it
// replaced: on random streams built to hit every omitempty arm and every
// string escape, and on real recorded runs, the bytes are json.MarshalIndent's.
func TestSaveMatchesMarshalIndent(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomStream(rng, rng.Intn(4))
		if seed%7 == 0 && len(s.Members) > 0 {
			s.Members[0] = &Stream{} // a member is not version-checked and may be bare
		}
		requireSaveMatchesReference(t, fmt.Sprintf("random stream %d", seed), s)
	}

	w, err := workload.Poisson{Jobs: 2000, MeanGap: 170}.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range core.AllPolicies() {
		cfg := sim.DefaultConfig(p)
		cfg.LogDecisions = true
		st, err := RecordSim(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Decisions) < len(w.Jobs) {
			t.Fatalf("%s: %d decisions recorded for %d jobs", p, len(st.Decisions), len(w.Jobs))
		}
		st.Label = "poisson/" + p.String()
		requireSaveMatchesReference(t, st.Label, st)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errDiskFull
	}
	f.n -= len(p)
	return len(p), nil
}

// TestSaveSurfacesWriteErrors: Save buffers its writes, so a failing writer
// must still fail Save wherever in the document it fails — and a stream that
// does not validate must not reach the writer at all.
func TestSaveSurfacesWriteErrors(t *testing.T) {
	st := recordedSim(t, core.Elastic, nil)
	size := len(marshalIndentReference(t, st))
	for _, n := range []int{0, 1, size / 2, size - 1} {
		if err := st.Save(&failAfter{n: n}); !errors.Is(err, errDiskFull) {
			t.Errorf("writer failing after %d of %d bytes: Save returned %v", n, size, err)
		}
	}
	if err := st.Save(&failAfter{n: size}); err != nil {
		t.Errorf("writer with room for the whole document: %v", err)
	}

	st.Version = StreamVersion + 1
	var out bytes.Buffer
	if err := st.Save(&out); err == nil || out.Len() != 0 {
		t.Errorf("invalid version: Save returned %v after writing %d bytes", err, out.Len())
	}
}

// decisionsStream is a stream of n decisions whose records are all alike.
func decisionsStream(n int) *Stream {
	s := &Stream{Version: StreamVersion, Label: "allocs", Summary: &Summary{Policy: "elastic"}}
	s.Decisions = make([]Decision, n)
	for i := range s.Decisions {
		s.Decisions[i] = Decision{AtNs: sim.Origin.UnixNano() + int64(i)*1e9, Kind: core.DecisionStart, JobID: fmt.Sprintf("job-%05d", i), Replicas: 4, FreeSlots: 60}
	}
	return s
}

// TestSaveAllocsDoNotScale is the encoder's runner-independent regression
// row: what Save allocates is its buffers and the small parts, so a hundred
// times the decisions cost not one allocation more.
func TestSaveAllocsDoNotScale(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes allocation counts")
	}
	allocs := func(n int) float64 {
		s := decisionsStream(n)
		return testing.AllocsPerRun(5, func() {
			if err := s.Save(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(10_000)
	if small != large {
		t.Errorf("Save allocates %.0f times for 100 decisions and %.0f for 10,000: it scales with the run", small, large)
	}
}

// TestLoadRejectsTrailingData: a stream file holds one document. The first of
// two concatenated ones, or what is left readable of a half-overwritten file,
// used to load as if it were the whole.
func TestLoadRejectsTrailingData(t *testing.T) {
	for _, tc := range []struct {
		name, doc string
		ok        bool
	}{
		{"one document", `{"version":2}`, true},
		{"trailing whitespace", "{\"version\":2} \n\t\r\n", true},
		{"trailing garbage", `{"version":2} garbage {{{`, false},
		{"second document", `{"version":2}{"version":2}`, false},
		{"stray closing brace", `{"version":2}}`, false},
		{"trailing scalar", `{"version":2} 0`, false},
	} {
		_, err := Load(strings.NewReader(tc.doc))
		if (err == nil) != tc.ok {
			t.Errorf("%s: Load(%q) error = %v, want accepted = %v", tc.name, tc.doc, err, tc.ok)
		}
	}
}

// TestSaveFileReplacesRegularFile: saving over a stream file unlinks it and
// writes a new one, so another link to the old file keeps the old bytes.
func TestSaveFileReplacesRegularFile(t *testing.T) {
	dir := t.TempDir()
	path, link := filepath.Join(dir, "stream.json"), filepath.Join(dir, "old.json")
	if err := decisionsStream(2).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Link(path, link); err != nil {
		t.Skip("no hard links here:", err)
	}
	if err := decisionsStream(3).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if back, err := LoadFile(path); err != nil || len(back.Decisions) != 3 {
		t.Errorf("the path does not hold what was saved: %v", err)
	}
	if kept, err := os.ReadFile(link); err != nil || !bytes.Equal(kept, old) {
		t.Errorf("the old file was written in place: its other link reads %d bytes (%v), want the %d it had", len(kept), err, len(old))
	}
}
