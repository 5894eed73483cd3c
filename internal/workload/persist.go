package workload

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
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

// csvHeader is the column layout of the CSV trace format.
var csvHeader = []string{"id", "class", "priority", "submit_at"}

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
	var jobs jobList
	for _, e := range doc.Jobs {
		if err := jobs.add(e.ID, e.Class, e.Priority, e.SubmitAt); err != nil {
			return Workload{}, err
		}
	}
	return jobs.workload()
}

// SaveCSV writes a workload in the CSV trace format: a header row followed by
// one `id,class,priority,submit_at` row per job.
func SaveCSV(w io.Writer, workload Workload) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("workload: csv: %w", err)
	}
	for _, j := range workload.Jobs {
		rec := []string{
			j.ID, j.Class.String(),
			strconv.Itoa(j.Priority),
			strconv.FormatFloat(j.SubmitAt, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("workload: csv: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// LoadCSV reads the CSV trace format, applying the same validation as Load.
// Rows are decoded one at a time straight into the workload: a row costs its
// one string (the job's ID is a substring of it), whatever the file's size.
func LoadCSV(r io.Reader) (Workload, error) {
	cr, err := csvRows(r, "csv", csvHeader)
	if err != nil {
		return Workload{}, err
	}
	var jobs jobList
	for row := 1; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return jobs.workload()
		}
		if err != nil {
			return Workload{}, fmt.Errorf("workload: csv: %w", err)
		}
		prio, err := strconv.Atoi(rec[2])
		if err != nil {
			return Workload{}, fmt.Errorf("workload: csv row %d priority: %w", row, err)
		}
		at, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return Workload{}, fmt.Errorf("workload: csv row %d submit_at: %w", row, err)
		}
		if err := jobs.add(rec[0], rec[1], prio, at); err != nil {
			return Workload{}, err
		}
	}
}

// csvRows returns a reader over the rows that follow r's header row, which
// must name header's columns (case and surrounding space aside). The reader
// reuses its record: the next Read overwrites the slice a Read returned, not
// the strings in it. what names the format in errors.
func csvRows(r io.Reader, what string, header []string) (*csv.Reader, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	cr.ReuseRecord = true
	rec, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("workload: %s document is empty", what)
	}
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", what, err)
	}
	if len(rec) != len(header) || !equalFold(rec, header) {
		return nil, fmt.Errorf("workload: %s header %v, want %v", what, rec, header)
	}
	return cr, nil
}

func equalFold(a, b []string) bool {
	for i := range a {
		if !strings.EqualFold(strings.TrimSpace(a[i]), b[i]) {
			return false
		}
	}
	return true
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
// by submit time (stable, so simultaneous submissions keep file order).
func (l jobList) workload() (Workload, error) {
	if len(l) == 0 {
		return Workload{}, fmt.Errorf("workload: document has no jobs")
	}
	seen := make(map[string]struct{}, len(l))
	for _, j := range l {
		if _, dup := seen[j.ID]; dup {
			return Workload{}, fmt.Errorf("workload: duplicate job id %q", j.ID)
		}
		seen[j.ID] = struct{}{}
	}
	sort.SliceStable(l, func(i, j int) bool { return l[i].SubmitAt < l[j].SubmitAt })
	return Workload{Jobs: l}, nil
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

// LoadFile reads a workload from path, picking the format by extension.
func LoadFile(path string) (Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return Workload{}, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		return LoadCSV(f)
	}
	return Load(f)
}
