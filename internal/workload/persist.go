package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/bits"
	"os"
	"sort"
	"strings"

	"elastichpc/internal/model"
)

// Document is the serialized JSON workload format (version 1, unchanged from
// the original trace format so existing trace files keep loading).
type Document struct {
	// Version guards against format drift.
	Version int `json:"version"`
	// Comment is free-form provenance (generator, seed, date).
	Comment string     `json:"comment,omitempty"`
	Jobs    []JobEntry `json:"jobs"`
}

// JobEntry is one serialized job submission.
type JobEntry struct {
	ID       string  `json:"id"`
	Class    string  `json:"class"`
	Priority int     `json:"priority"`
	SubmitAt float64 `json:"submitAt"`
}

// currentVersion is the format version written by Save.
const currentVersion = 1

func classByName(name string) (model.Class, error) {
	for _, c := range model.AllClasses() {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown job class %q", name)
}

// Save writes a workload as JSON.
func Save(w io.Writer, workload Workload, comment string) error {
	doc := Document{Version: currentVersion, Comment: comment}
	for _, j := range workload.Jobs {
		doc.Jobs = append(doc.Jobs, JobEntry{
			ID: j.ID, Class: j.Class.String(), Priority: j.Priority, SubmitAt: j.SubmitAt,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// decodeDocument decodes the one JSON document r holds into v; anything but
// whitespace after it is an error, so a concatenated or half-overwritten file
// is rejected instead of read up to its first closing brace.
func decodeDocument(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the document")
	}
	return nil
}

// Load reads a workload from JSON, validating classes, priorities, and
// submission ordering.
func Load(r io.Reader) (Workload, error) {
	var doc Document
	if err := decodeDocument(r, &doc); err != nil {
		return Workload{}, fmt.Errorf("workload: decode: %w", err)
	}
	if doc.Version != currentVersion {
		return Workload{}, fmt.Errorf("workload: unsupported version %d", doc.Version)
	}
	jobs := make(jobList, 0, len(doc.Jobs))
	for _, e := range doc.Jobs {
		if err := jobs.add(e.ID, e.Class, e.Priority, e.SubmitAt); err != nil {
			return Workload{}, err
		}
	}
	return jobs.workload()
}

// jobList is the one validator behind both trace decoders: add checks a job as
// its row or entry is decoded, workload checks the list as a whole.
type jobList []JobSpec

// add validates one serialized job and appends it.
func (l *jobList) add(id, className string, priority int, submitAt float64) error {
	if id == "" {
		return fmt.Errorf("workload: job %d has no id", len(*l))
	}
	class, err := classByName(className)
	if err != nil {
		return err
	}
	if priority < 1 {
		return fmt.Errorf("workload: job %q priority %d < 1", id, priority)
	}
	if submitAt < 0 || math.IsNaN(submitAt) || math.IsInf(submitAt, 0) {
		return fmt.Errorf("workload: job %q submitAt %v", id, submitAt)
	}
	*l = append(*l, JobSpec{ID: id, Class: class, Priority: priority, SubmitAt: submitAt})
	return nil
}

// workload rejects an empty list and duplicate IDs and returns the jobs sorted
// by submit time (stable, so simultaneous submissions keep file order); a list
// already in that order, as a saved trace is, is not sorted again.
func (l jobList) workload() (Workload, error) {
	if len(l) == 0 {
		return Workload{}, fmt.Errorf("workload: document has no jobs")
	}
	if id, dup := duplicateID(l); dup {
		return Workload{}, fmt.Errorf("workload: duplicate job id %q", id)
	}
	w := Workload{Jobs: l}
	if !w.InSubmitOrder() {
		sort.SliceStable(l, func(i, j int) bool { return l[i].SubmitAt < l[j].SubmitAt })
	}
	return w, nil
}

// duplicateID returns the first job ID in l that an earlier job has too. The
// set of IDs seen is one open-addressed table of job indices, so the check
// costs one allocation however long the trace is (a map grows a table per
// thousand or so keys).
func duplicateID(l []JobSpec) (string, bool) {
	slots := make([]int32, 1<<bits.Len(uint(2*len(l)))) // job index + 1; 0 = free
	mask := uint64(len(slots) - 1)
	seed := maphash.MakeSeed()
	for i, j := range l {
		for h := maphash.String(seed, j.ID) & mask; ; h = (h + 1) & mask {
			if slots[h] == 0 {
				slots[h] = int32(i + 1)
				break
			}
			if l[slots[h]-1].ID == j.ID {
				return j.ID, true
			}
		}
	}
	return "", false
}

// SaveFile writes a workload to path, picking the format by extension:
// ".csv" writes the CSV trace format, anything else the JSON document.
func SaveFile(path string, workload Workload, comment string) error {
	f, err := CreateFresh(path)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		err = SaveCSV(f, workload)
	} else {
		err = Save(f, workload, comment)
	}
	return closeWritten(f, err)
}

// CreateFresh opens path for writing as os.Create does, except that a regular
// file already there is unlinked first, not truncated: ext4 takes truncate-
// then-rewrite for a replace and forces the new blocks to disk at close, which
// made saving a small trace over its previous copy cost several times a save
// to a new name. The old file's mode and other links do not carry over.
// Anything else at path — a symlink, a device, a FIFO — is opened in place,
// and so is a file that cannot be unlinked.
func CreateFresh(path string) (*os.File, error) {
	if fi, err := os.Lstat(path); err == nil && fi.Mode().IsRegular() {
		_ = os.Remove(path) // os.Create truncates what is left
	}
	return os.Create(path)
}

// closeWritten closes a file that was just written and returns the write
// error, or else the close error: a write the kernel deferred fails there.
func closeWritten(f *os.File, writeErr error) error {
	if err := f.Close(); err != nil && writeErr == nil {
		return fmt.Errorf("workload: %w", err)
	}
	return writeErr
}

// LoadFile reads a workload from path, picking the format by extension. The
// file is read whole, in one read sized from its length.
func LoadFile(path string) (Workload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Workload{}, fmt.Errorf("workload: %w", err)
	}
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		return loadCSV(bytesString(data))
	}
	return Load(bytes.NewReader(data))
}
