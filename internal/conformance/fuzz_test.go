package conformance

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/sim"
)

// fuzzScenario derives a bounded scenario from a fuzzer-chosen seed: the
// seed drives the same generator the property tests use, truncated so one
// fuzz execution stays fast.
func fuzzScenario(seed int64) Scenario {
	sc := RandomScenario(rand.New(rand.NewSource(seed)))
	if sc.Jobs() > 48 {
		sc.Workload.Jobs = sc.Workload.Jobs[:48]
	}
	return sc
}

// FuzzIncrementalEquivalence fuzzes the incremental scheduler's contract:
// any generated scenario × policy must produce a decision stream identical
// to the full-redistribute reference.
func FuzzIncrementalEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(1))
	f.Add(int64(42), uint8(2))
	f.Add(int64(1234), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, policyIdx uint8) {
		sc := fuzzScenario(seed)
		p := core.AllPolicies()[int(policyIdx)%4]
		report, err := scenarioDivergence(sc, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if report != "" {
			t.Fatalf("seed %d policy %s diverged:\n%s", seed, p, report)
		}
	})
}

// FuzzShardEquivalence fuzzes the sharded event loop's contract: any
// generated scenario × policy × shard width — automatic (0) included — must
// match the sequential reference exactly.
func FuzzShardEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(2))
	f.Add(int64(7), uint8(1), uint8(8))
	f.Add(int64(42), uint8(3), uint8(3))
	f.Add(int64(394), uint8(6), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, policyIdx, shardWidth uint8) {
		sc := fuzzScenario(seed)
		p := core.AllPolicies()[int(policyIdx)%4]
		shards := 2 + int(shardWidth)%7
		if policyIdx&4 != 0 {
			shards = 0 // automatic; the committed corpus keeps its widths
		}
		run := func(shards int) (*Stream, error) {
			cfg := sim.DefaultConfig(p)
			cfg.Availability = sc.Trace
			cfg.LogDecisions = true
			cfg.Shards = shards
			return RecordSim(cfg, sc.Workload)
		}
		ref, err := run(1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := run(shards)
		if err != nil {
			t.Fatal(err)
		}
		if d := Compare(ref, got); !d.Empty() {
			t.Fatalf("seed %d policy %s shards %d diverged:\n%s",
				seed, p, shards, d.Format(ref, got, 0))
		}
	})
}

// FuzzSpecFromMeta fuzzes the decoder every -replay goes through. The input is
// a Meta map spelled as key=value lines. Hostile maps are an error, never a
// panic, and an accepted one re-encodes to a map that decodes to the same
// run. The two runs are compared as encodings: a NaN knob is not equal to
// itself as a value, and Meta drops fleet knobs a non-federation backend never
// reads.
func FuzzSpecFromMeta(f *testing.F) {
	st, err := LoadFile("../../cmd/conftest/testdata/golden/stream.json")
	if err != nil {
		f.Fatal(err)
	}
	keys := make([]string, 0, len(st.Meta))
	for k := range st.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var lines []string
	for _, k := range keys {
		lines = append(lines, k+"="+st.Meta[k])
	}
	f.Add(strings.Join(lines, "\n"))
	f.Add("backend=sim\nscenario=burst\njobs=48\nwaves=3\ndrain=true\nshards=8\nrescale_gap=60\npreempt=T")
	f.Add("policy=turbo")
	f.Add("gap=NaN\nmembers=-1")
	f.Fuzz(func(t *testing.T, text string) {
		meta := map[string]string{}
		for _, line := range strings.Split(text, "\n") {
			k, v, _ := strings.Cut(line, "=")
			meta[k] = v
		}
		spec, err := SpecFromMeta(meta)
		if err != nil {
			return
		}
		again, err := SpecFromMeta(spec.Meta())
		if err != nil {
			t.Fatalf("re-encoded meta %v does not decode: %v", spec.Meta(), err)
		}
		if !reflect.DeepEqual(spec.Meta(), again.Meta()) {
			t.Fatalf("round trip changed the spec:\nfirst:  %v\nsecond: %v", spec.Meta(), again.Meta())
		}
	})
}

// FuzzStreamLoad holds the stream decoder to the contract -diff and -replay
// rely on: hostile bytes are an error, never a panic, and whatever decodes
// re-encodes to a document that decodes to the same stream. "The same" is
// reflect.DeepEqual up to one thing: an empty list or map decodes as empty and
// is written as absent, so the two sides are compared as encoding/json renders
// them — an encoder of its own that drops empties alike and that Save could
// not fool by losing a field. Save itself is held to that encoder on every
// accepted input: what it streams is what json.MarshalIndent would have built.
func FuzzStreamLoad(f *testing.F) {
	golden, err := os.ReadFile("../../cmd/conftest/testdata/golden/stream.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"version":2,"meta":{},"members":[{"version":2,"summary":{"policy":"elastic","goodput":-0}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		saved := requireSaveMatchesReference(t, "accepted stream", st)
		again, err := Load(bytes.NewReader(saved))
		if err != nil {
			t.Fatalf("re-encoded stream does not decode: %v\n%s", err, saved)
		}
		first, _ := json.Marshal(st)
		second, _ := json.Marshal(again)
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the stream:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}
