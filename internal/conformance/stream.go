// Package conformance records, serializes, diffs, and replays scheduler
// decision streams — the first-class form of the bit-equality safety net
// behind the incremental core, the sharded event loop, and the federation
// rebalancer.
//
// A Stream is the canonical, versioned serialization of one run: the
// core.Decision log, the rebalancer's migration log, a Summary of the run's
// aggregate Result (plus an exact per-job digest in retained mode), and —
// for federations — one member sub-stream per cluster. Streams are JSON and
// golden-file friendly, and they are bit-exact: decision times serialize as
// Unix nanoseconds and float aggregates round-trip unchanged through
// encoding/json's shortest representation, so two runs are equivalent
// exactly when their streams compare equal.
//
// Compare diffs two streams structurally; on divergence Diff.Format renders
// a readable window (±K decisions around the first mismatch, with a
// field-level diff and job/cluster IDs resolved) instead of a
// reflect.DeepEqual bool. The equivalence matrix in matrix.go drives every
// pinned contract — incremental vs FullRedistribute, streaming vs retained,
// Shards 0 (automatic)/2/8 vs sequential, rebalanced fleets sequential vs parallel vs
// repeated, cluster-emulation repeat determinism — through this one
// package, and cmd/conftest records, replays, and diffs streams from the
// command line so a failing CI case reproduces locally from an artifact.
package conformance

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strconv"
	"time"

	"elastichpc/internal/core"
	"elastichpc/internal/federation"
	"elastichpc/internal/sim"
)

// StreamVersion is the stream format generation written by this package, and
// the only one it reads. Generation 2 logs effects only; generation 1 also
// logged every waiting job a scheduling pass put back, so the two cannot be
// compared entry for entry and a generation-1 stream is rejected at decode.
const StreamVersion = 2

// epochNs anchors decision timestamps: both the simulator and the cluster
// emulation start their virtual clocks at 2025-01-01T00:00:00Z, so every
// decision's wall-clock instant renders as a relative offset from it.
var epochNs = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()

// Stream is the canonical serialization of one run's decision stream.
type Stream struct {
	// Version is the format generation (StreamVersion when written here).
	Version int `json:"version"`
	// Label names the run (a matrix candidate, a federation member).
	Label string `json:"label,omitempty"`
	// Meta records how the stream was produced — a RunSpec's key/value
	// encoding, which Replay turns back into an executable run.
	Meta map[string]string `json:"meta,omitempty"`
	// Decisions is the scheduler's decision log — its effects, oldest first
	// (empty when the run did not enable decision logging).
	Decisions []Decision `json:"decisions,omitempty"`
	// Migrations is the federation rebalancer's move log (fleet runs only).
	Migrations []Migration `json:"migrations,omitempty"`
	// Summary carries the run's aggregate Result, bit-exact.
	Summary *Summary `json:"summary,omitempty"`
	// Members holds one sub-stream per federation member, in member order.
	// Members never nest further.
	Members []*Stream `json:"members,omitempty"`
}

// Decision is one core.Decision in serialized form. The timestamp is the
// decision's exact Unix-nanosecond instant, so JSON round-trips cannot lose
// a bit; renderers show it relative to the shared 2025-01-01 UTC epoch.
type Decision struct {
	AtNs      int64  `json:"at_ns"`
	Kind      string `json:"kind"`
	JobID     string `json:"job,omitempty"`
	Replicas  int    `json:"replicas"`
	FreeSlots int    `json:"free"`
}

// render formats one decision as a human-readable log line with the time
// relative to the epoch.
func (d Decision) render() string {
	job := d.JobID
	if job == "" {
		job = "-"
	}
	return fmt.Sprintf("t=+%.6fs %-8s %-14s replicas=%-3d free=%d",
		float64(d.AtNs-epochNs)/1e9, d.Kind, job, d.Replicas, d.FreeSlots)
}

// Migration mirrors federation.Migration: one rebalancer move.
type Migration struct {
	Round        int     `json:"round"`
	At           float64 `json:"at_s"`
	JobID        string  `json:"job"`
	From         int     `json:"from"`
	To           int     `json:"to"`
	Checkpointed bool    `json:"checkpointed,omitempty"`
}

// render formats one migration as a log line.
func (m Migration) render() string {
	ckpt := ""
	if m.Checkpointed {
		ckpt = " (checkpointed)"
	}
	return fmt.Sprintf("round=%-4d t=%.1fs %s: member %d -> %d%s",
		m.Round, m.At, m.JobID, m.From, m.To, ckpt)
}

// Summary carries a run's aggregate metrics, field for field from
// sim.Result (and the fleet-level extras from federation.Result). Floats
// are stored as-is: encoding/json writes the shortest representation that
// round-trips, so equality of summaries is bit-equality of the run.
type Summary struct {
	Policy             string  `json:"policy"`
	Jobs               int     `json:"jobs,omitempty"` // retained job records (0 in streaming mode)
	TotalTime          float64 `json:"total_time_s"`
	Utilization        float64 `json:"utilization"`
	WeightedResponse   float64 `json:"weighted_response_s"`
	WeightedCompletion float64 `json:"weighted_completion_s"`
	FirstStart         float64 `json:"first_start_s"`
	LastEnd            float64 `json:"last_end_s"`
	UsedSlotSec        float64 `json:"used_slot_s"`
	DeliveredSlotSec   float64 `json:"delivered_slot_s"`
	WeightSum          float64 `json:"weight_sum"`
	EndCapacity        int     `json:"end_capacity,omitempty"`
	CapacityEvents     int     `json:"capacity_events,omitempty"`
	ForcedShrinks      int     `json:"forced_shrinks,omitempty"`
	Requeues           int     `json:"requeues,omitempty"`
	WorkLostSec        float64 `json:"work_lost_s,omitempty"`
	GoodputFrac        float64 `json:"goodput"`
	// Fleet-only fields (federation runs).
	Imbalance       float64 `json:"imbalance,omitempty"`
	RebalanceRounds int     `json:"rebalance_rounds,omitempty"`
	JobsPerMember   []int   `json:"jobs_per_member,omitempty"`
	// JobsDigest is an FNV-64a fingerprint of the retained per-job metrics,
	// replica timelines, and utilization timeline (exact hex-float
	// renderings, so a single-ulp drift changes it). Empty in streaming
	// mode; comparisons skip it when either side lacks one.
	JobsDigest string `json:"jobs_digest,omitempty"`
}

// FromDecisions converts a core decision log to its serialized form.
func FromDecisions(log []core.Decision) []Decision {
	if len(log) == 0 {
		return nil
	}
	out := make([]Decision, len(log))
	for i, d := range log {
		out[i] = Decision{
			AtNs:      d.At.UnixNano(),
			Kind:      d.Kind.String(),
			JobID:     d.JobID,
			Replicas:  d.Replicas,
			FreeSlots: d.FreeSlots,
		}
	}
	return out
}

// FromMigrations converts a federation migration log.
func FromMigrations(migs []federation.Migration) []Migration {
	if len(migs) == 0 {
		return nil
	}
	out := make([]Migration, len(migs))
	for i, m := range migs {
		out[i] = Migration{
			Round: m.Round, At: m.At, JobID: m.JobID,
			From: m.From, To: m.To, Checkpointed: m.Checkpointed,
		}
	}
	return out
}

// SummaryOf captures one sim (or cluster-emulation) Result.
func SummaryOf(res sim.Result) *Summary {
	return &Summary{
		Policy:             res.Policy.String(),
		Jobs:               len(res.Jobs),
		TotalTime:          res.TotalTime,
		Utilization:        res.Utilization,
		WeightedResponse:   res.WeightedResponse,
		WeightedCompletion: res.WeightedCompletion,
		FirstStart:         res.FirstStart,
		LastEnd:            res.LastEnd,
		UsedSlotSec:        res.UsedSlotSec,
		DeliveredSlotSec:   res.DeliveredSlotSec,
		WeightSum:          res.WeightSum,
		EndCapacity:        res.EndCapacity,
		CapacityEvents:     res.CapacityEvents,
		ForcedShrinks:      res.ForcedShrinks,
		Requeues:           res.Requeues,
		WorkLostSec:        res.WorkLostSec,
		GoodputFrac:        res.GoodputFrac,
		JobsDigest:         jobsDigest(res),
	}
}

// FleetSummaryOf captures one federation Result's fleet-level aggregates.
func FleetSummaryOf(res federation.Result) *Summary {
	return &Summary{
		Policy:             res.Policy.String(),
		TotalTime:          res.TotalTime,
		Utilization:        res.Utilization,
		WeightedResponse:   res.WeightedResponse,
		WeightedCompletion: res.WeightedCompletion,
		CapacityEvents:     res.CapacityEvents,
		ForcedShrinks:      res.ForcedShrinks,
		Requeues:           res.Requeues,
		WorkLostSec:        res.WorkLostSec,
		GoodputFrac:        res.GoodputFrac,
		Imbalance:          res.Imbalance,
		RebalanceRounds:    res.RebalanceRounds,
		JobsPerMember:      append([]int(nil), res.JobsPerMember...),
	}
}

// jobsDigest fingerprints a retained result's per-job metrics and
// timelines. Every float is rendered in exact hexadecimal form before
// hashing, so the digest changes on any single-ulp difference — the compact
// stand-in for serializing millions of per-job records into the stream.
func jobsDigest(res sim.Result) string {
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
		for _, s := range res.ReplicaTimelines[j.ID] {
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

// Validate checks the stream's structural integrity: a readable version and
// no doubly-nested members.
func (s *Stream) Validate() error {
	if s.Version == 1 {
		return fmt.Errorf("conformance: stream version 1 logged every re-enqueue, version %d logs effects only: re-record the stream with this build", StreamVersion)
	}
	if s.Version != StreamVersion {
		return fmt.Errorf("conformance: stream version %d, this build reads %d", s.Version, StreamVersion)
	}
	for i, m := range s.Members {
		if m == nil {
			return fmt.Errorf("conformance: member %d is null", i)
		}
		if len(m.Members) > 0 {
			return fmt.Errorf("conformance: member %d nests further members", i)
		}
	}
	return nil
}

// Save writes the stream as indented JSON, byte for byte what
// json.MarshalIndent(s, "", "  ") plus a newline would be, without building
// the document: the parts that do not grow with the run go through
// encoding/json at their depth, the decisions are appended one record at a
// time to a reused buffer. A stream that fails Validate writes nothing; a
// later error may leave a prefix of the document in w.
func (s *Stream) Save(w io.Writer) error {
	if err := s.Validate(); err != nil {
		return err
	}
	e := streamEncoder{w: bufio.NewWriterSize(w, 64<<10), rec: make([]byte, 0, 256)}
	e.stream(s, "")
	e.w.WriteByte('\n')
	if e.err != nil {
		return e.err
	}
	return e.w.Flush() // the writer's first error, if any write failed
}

// streamEncoder writes one document. Write errors stay in the bufio.Writer
// until Flush; err is the first encoding/json error.
type streamEncoder struct {
	w   *bufio.Writer
	rec []byte // the record being assembled, reused
	err error
}

// stream writes s as an object whose closing brace sits at indent.
func (e *streamEncoder) stream(s *Stream, indent string) {
	in := indent + "  "
	e.w.WriteString("{\n" + in + `"version": `)
	e.w.Write(strconv.AppendInt(e.rec[:0], int64(s.Version), 10))
	field := func(name string) { e.w.WriteString(",\n" + in + `"` + name + `": `) }
	if s.Label != "" {
		field("label")
		e.w.Write(appendString(e.rec[:0], s.Label))
	}
	if len(s.Meta) > 0 {
		field("meta")
		e.marshal(s.Meta, in)
	}
	if len(s.Decisions) > 0 {
		field("decisions")
		e.decisions(s.Decisions, in)
	}
	if len(s.Migrations) > 0 {
		field("migrations")
		e.marshal(s.Migrations, in)
	}
	if s.Summary != nil {
		field("summary")
		e.marshal(s.Summary, in)
	}
	if len(s.Members) > 0 {
		field("members")
		sep := "[\n"
		for _, m := range s.Members {
			e.w.WriteString(sep + in + "  ")
			e.stream(m, in+"  ")
			sep = ",\n"
		}
		e.w.WriteString("\n" + in + "]")
	}
	e.w.WriteString("\n" + indent + "}")
}

// marshal writes a part whose size does not depend on the run's length the
// way encoding/json indents it at this depth.
func (e *streamEncoder) marshal(v any, indent string) {
	data, err := json.MarshalIndent(v, indent, "  ")
	if err != nil && e.err == nil {
		e.err = err
	}
	e.w.Write(data)
}

// decisions writes the list whose brackets sit at indent, one record per
// Write. The field order and the omitted empty job are Decision's struct tags.
func (e *streamEncoder) decisions(ds []Decision, indent string) {
	in := indent + "    "
	atNs := indent + "  {\n" + in + `"at_ns": `
	kind := ",\n" + in + `"kind": `
	job := ",\n" + in + `"job": `
	replicas := ",\n" + in + `"replicas": `
	free := ",\n" + in + `"free": `
	end := "\n" + indent + "  }"
	sep := "[\n"
	for i := range ds {
		d := &ds[i]
		b := append(e.rec[:0], sep...)
		b = strconv.AppendInt(append(b, atNs...), d.AtNs, 10)
		b = appendString(append(b, kind...), d.Kind)
		if d.JobID != "" {
			b = appendString(append(b, job...), d.JobID)
		}
		b = strconv.AppendInt(append(b, replicas...), int64(d.Replicas), 10)
		b = strconv.AppendInt(append(b, free...), int64(d.FreeSlots), 10)
		e.rec = append(b, end...)
		e.w.Write(e.rec)
		sep = ",\n"
	}
	e.w.WriteString("\n" + indent + "]")
}

// appendString appends s as a JSON string. Printable ASCII that encoding/json
// would copy unchanged is copied; anything it would escape or replace — quotes,
// backslashes, the HTML characters, control bytes, non-ASCII — is left to it.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// SaveFile writes the stream to path.
func (s *Stream) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads and validates a stream.
func Load(r io.Reader) (*Stream, error) {
	var s Stream
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("conformance: %w", err)
	}
	// One document per file: the first of two, or the readable head of a
	// half-overwritten one, must not pass for the stream.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("conformance: trailing data after the stream document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads a stream from path.
func LoadFile(path string) (*Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
