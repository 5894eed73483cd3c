package main

import (
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Start and End are nanoseconds since the recorder was created; Parent
// is the index of the enclosing span (-1 for a root); spans of one repetition
// share Run, which is assigned when runs are merged into a trace file.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how untraced workers run the same code path.
type recorder struct {
	t0    time.Time
	open  int // index of the innermost open span, -1 at top level
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), open: -1}
}

// begin opens a span under the innermost open one and returns the function
// that closes it.
func (r *recorder) begin(name string) func() {
	if r == nil {
		return func() {}
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: r.open})
	r.open = i
	return func() {
		r.spans[i].End = int64(time.Since(r.t0))
		r.open = r.spans[i].Parent
	}
}

// layerOf is the part of a span name before the first dot: the package the
// call went into.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its direct children cover (overlapping children are merged,
// and a child is clipped to its parent's interval).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerSelf sums self time per layer over the spans below (and including)
// the given root, in seconds.
func layerSelf(spans []span, root int) map[string]float64 {
	self := selfTimes(spans)
	under := make([]bool, len(spans))
	out := map[string]float64{}
	for i, s := range spans {
		// Spans are appended in begin order, so a parent precedes its children.
		under[i] = i == root || (s.Parent >= 0 && under[s.Parent])
		if under[i] {
			out[layerOf(s.Name)] += float64(self[i]) / 1e9
		}
	}
	return out
}
