package conformance

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"testing"

	"elastichpc/internal/cluster"
	"elastichpc/internal/core"
	"elastichpc/internal/federation"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// jobsDigestReference is jobsDigest written the plain way: every value
// formatted by strconv into a buffer, the buffer and a ';' written to
// hash/fnv's FNV-64a. jobsDigest must return what it returns on every
// result.
func jobsDigestReference(res sim.Result) string {
	if res.Jobs == nil {
		return ""
	}
	h := fnv.New64a()
	buf := make([]byte, 0, 64)
	f := func(x float64) {
		buf = strconv.AppendFloat(buf[:0], x, 'x', -1, 64)
		buf = append(buf, ';')
		h.Write(buf)
	}
	n := func(x int) {
		buf = strconv.AppendInt(buf[:0], int64(x), 10)
		buf = append(buf, ';')
		h.Write(buf)
	}
	str := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{';'})
	}
	for _, j := range res.Jobs {
		str(j.ID)
		n(int(j.Class))
		n(j.Priority)
		n(j.Replicas)
		n(j.Rescales)
		f(j.SubmitAt)
		f(j.StartAt)
		f(j.EndAt)
		f(j.OverheadSec)
		f(j.ResponseTime)
		f(j.CompletionTime)
		for _, s := range j.Timeline {
			f(s.At)
			n(s.Replicas)
		}
	}
	for _, s := range res.UtilTimeline {
		f(s.At)
		n(s.Used)
	}
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

// requireDigestMatchesReference fails unless res is a retained result with
// replica timelines whose digest equals the reference's.
func requireDigestMatchesReference(t *testing.T, name string, res sim.Result) {
	t.Helper()
	samples := 0
	for _, j := range res.Jobs {
		samples += len(j.Timeline)
	}
	if len(res.Jobs) == 0 || samples == 0 {
		t.Fatalf("%s: %d jobs, %d replica samples: nothing to digest", name, len(res.Jobs), samples)
	}
	if got, want := jobsDigest(res), jobsDigestReference(res); got != want {
		t.Errorf("%s: jobs digest %s, reference %s", name, got, want)
	}
}

// TestJobsDigestMatchesReference holds jobsDigest to its reference on each
// way a retained result is collected: a sequential run and a sharded one
// under every policy (records placed by workload index, from one simulator
// and from several), the members of a rebalanced fleet (records listed and
// sorted), and the cluster emulation.
func TestJobsDigestMatchesReference(t *testing.T) {
	w, err := workload.Burst{Waves: 6, PerWave: 30, WaveGap: 6000}.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range core.AllPolicies() {
		for _, shards := range []int{1, 2} {
			cfg := sim.DefaultConfig(p)
			cfg.Shards = shards
			res, err := sim.Run(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			requireDigestMatchesReference(t, fmt.Sprintf("%v shards %d", p, shards), res)
		}
	}

	fw, err := workload.Poisson{Jobs: 240, MeanGap: 45}.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	members := federation.Skewed(sim.DefaultConfig(core.Elastic), 3, -0.25)
	members[2].Availability = workload.AvailabilityTrace{Events: []workload.CapacityEvent{
		{At: 1500, Capacity: 6}, {At: 4500, Capacity: members[2].Capacity},
	}}
	fleet, err := federation.Run(federation.Config{
		Members:   members,
		Route:     federation.RoundRobin,
		Workers:   1,
		Rebalance: federation.RebalanceConfig{Every: 300, MigrateRunning: true},
	}, fw)
	if err != nil {
		t.Fatal(err)
	}
	injected := make([]bool, len(fleet.Members))
	for _, m := range fleet.Migrations {
		injected[m.To] = true
	}
	listed := 0
	for i, m := range fleet.Members {
		if injected[i] {
			listed++
		}
		requireDigestMatchesReference(t, fmt.Sprintf("fleet member %d", i), m)
	}
	if listed == 0 {
		t.Fatalf("no fleet member injected a job: %d migrations", len(fleet.Migrations))
	}

	cw, err := workload.Poisson{Jobs: 16, MeanGap: 120}.Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.RunExperiment(cluster.DefaultConfig(core.Elastic), cw)
	if err != nil {
		t.Fatal(err)
	}
	requireDigestMatchesReference(t, "cluster", res)
}

// TestDigestIntMatchesStrconv holds the digest's integer rendering to
// strconv.AppendInt at the edges of its range.
func TestDigestIntMatchesStrconv(t *testing.T) {
	for _, x := range []int{0, 1, 9, 10, 99, 100, -1, -10, 12345, math.MaxInt, math.MinInt, math.MinInt + 1} {
		want := fnv.New64a()
		want.Write(append(strconv.AppendInt(nil, int64(x), 10), ';'))
		if got := fnv64a(fnvOffset).int(x); uint64(got) != want.Sum64() {
			t.Errorf("%d: hash %016x, want %016x", x, uint64(got), want.Sum64())
		}
	}
}

// FuzzHexFloatDigest holds the digest's float rendering to
// strconv.AppendFloat(…, 'x', -1, 64) on any bit pattern: zeros, subnormals,
// 3- and 4-digit exponents, infinities and NaNs included.
func FuzzHexFloatDigest(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1, -1.5, 0.1, 1e-300, 1e300} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		x := math.Float64frombits(b)
		text := append(strconv.AppendFloat(nil, x, 'x', -1, 64), ';')
		want := fnv.New64a()
		want.Write(text)
		if got := fnv64a(fnvOffset).float(x); uint64(got) != want.Sum64() {
			t.Fatalf("%016x (%s): hash %016x, want %016x", b, text, uint64(got), want.Sum64())
		}
	})
}
