package main

import (
	"math/rand"
	"sort"
	"time"
)

// The shared hosts this benchmark runs on change speed by a factor of 1.5-2
// for minutes at a time, and no statistic over one run's repetitions can
// remove that. So the harness times a fixed reference kernel just before every
// worker and every set-up sample, and reports the two time metrics in
// reference-speed seconds: host seconds scaled by refNominal over what the
// kernel took at that moment. Host seconds are kept in every result record
// (wall_s beside ref_s), so either can be recomputed from the other.
//
// The runs that show the need are attached: reference/noisy1.jsonl and
// noisy2.jsonl (ten seeds x five workloads, 10 s runs) and noisy3.jsonl (20 s
// runs) were taken on a busy afternoon of the same host that later produced
// set1 and set2. Across ten seeds, jobs / median(wall_s) in plain host time
// spreads 0.24-0.63, 0.19-0.32 and 0.11-0.15 in the three (interquartile range
// over median; the contract refuses a benchmark above 0.25), and its median on
// burst_backlog sits 23 % below the quiet sets'; the same repetitions in
// reference-speed seconds spread 0.04-0.12, 0.07-0.13 and 0.03-0.08, and that
// median sits 2 % below. On a quiet host the two differ little (set1, set2:
// see README, "Reference numbers").

// refNominal is what the reference kernel takes on the 2-vCPU reference host
// (Xeon 2.1 GHz, go1.24) when nothing disturbs it. It only fixes the scale:
// on that host, undisturbed, a reference-speed second is a host second.
const refNominal = 30 * time.Millisecond

// refNode is one object of the reference kernel's linked structure, sized
// like the simulator's per-job records.
type refNode struct {
	key  uint64
	next *refNode
	pad  [4]uint64
}

const refSize = 100_000

// The kernel's arrays are allocated once, on first use (the harness runs the
// kernel, its workers never do), so that only its small-object phase depends
// on the collector.
var (
	refNodes []refNode
	refKeys  []uint64
	refPerm  []int32
)

// refKernel is a fixed piece of work with the program's resource profile — a
// chain of cache misses, a branchy sort, map inserts and lookups, small-object
// allocation — and none of the program's code. It returns how long it took.
func refKernel() time.Duration {
	if refNodes == nil {
		refNodes = make([]refNode, refSize)
		refKeys = make([]uint64, refSize)
		refPerm = make([]int32, refSize)
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(42))
	for i := range refKeys {
		refKeys[i] = rng.Uint64()
		refPerm[i] = int32(i)
	}
	rng.Shuffle(refSize, func(a, b int) { refPerm[a], refPerm[b] = refPerm[b], refPerm[a] })
	for i := 0; i < refSize; i++ {
		nd := &refNodes[refPerm[i]]
		nd.key = refKeys[i]
		nd.next = &refNodes[refPerm[(i+1)%refSize]]
	}
	sum := uint64(0)
	nd := &refNodes[refPerm[0]]
	for i := 0; i < 3*refSize; i++ {
		sum += nd.key
		nd = nd.next
	}
	sort.Slice(refKeys, func(a, b int) bool { return refKeys[a] < refKeys[b] })
	index := make(map[uint64]int32, refSize/2)
	for i := 0; i < refSize/2; i++ {
		index[refKeys[i]] = int32(i)
	}
	for i := 0; i < refSize; i++ {
		sum += uint64(index[refKeys[i]])
	}
	var head *refNode
	for i := 0; i < refSize/4; i++ {
		head = &refNode{key: uint64(i), next: head}
	}
	sink += float64((sum + head.key) & 1)
	return time.Since(start)
}

// refSample is the host's speed right now: the median of three kernel runs,
// in seconds.
func refSample() float64 {
	return median([]float64{refKernel().Seconds(), refKernel().Seconds(), refKernel().Seconds()})
}

// refSeconds converts host seconds to reference-speed seconds, given the
// reference sample taken beside them.
func refSeconds(hostS, refS float64) float64 {
	return hostS * refNominal.Seconds() / refS
}
