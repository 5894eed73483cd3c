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

// Load reads a workload from JSON, validating classes, priorities, and
// submission ordering.
func Load(r io.Reader) (Workload, error) {
	var doc Document
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return Workload{}, fmt.Errorf("workload: decode: %w", err)
	}
	if doc.Version != currentVersion {
		return Workload{}, fmt.Errorf("workload: unsupported version %d", doc.Version)
	}
	return fromEntries(doc.Jobs)
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
func LoadCSV(r io.Reader) (Workload, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	rows, err := cr.ReadAll()
	if err != nil {
		return Workload{}, fmt.Errorf("workload: csv: %w", err)
	}
	if len(rows) == 0 {
		return Workload{}, fmt.Errorf("workload: csv document is empty")
	}
	if len(rows[0]) != len(csvHeader) || !equalFold(rows[0], csvHeader) {
		return Workload{}, fmt.Errorf("workload: csv header %v, want %v", rows[0], csvHeader)
	}
	var entries []JobEntry
	for i, rec := range rows[1:] {
		prio, err := strconv.Atoi(rec[2])
		if err != nil {
			return Workload{}, fmt.Errorf("workload: csv row %d priority: %w", i+1, err)
		}
		at, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return Workload{}, fmt.Errorf("workload: csv row %d submit_at: %w", i+1, err)
		}
		entries = append(entries, JobEntry{ID: rec[0], Class: rec[1], Priority: prio, SubmitAt: at})
	}
	return fromEntries(entries)
}

func equalFold(a, b []string) bool {
	for i := range a {
		if !strings.EqualFold(strings.TrimSpace(a[i]), b[i]) {
			return false
		}
	}
	return true
}

// fromEntries validates serialized jobs and returns them sorted by submit
// time (stable, so simultaneous submissions keep file order).
func fromEntries(entries []JobEntry) (Workload, error) {
	if len(entries) == 0 {
		return Workload{}, fmt.Errorf("workload: document has no jobs")
	}
	var w Workload
	seen := make(map[string]bool, len(entries))
	for i, e := range entries {
		if e.ID == "" {
			return Workload{}, fmt.Errorf("workload: job %d has no id", i)
		}
		if seen[e.ID] {
			return Workload{}, fmt.Errorf("workload: duplicate job id %q", e.ID)
		}
		seen[e.ID] = true
		class, err := classByName(e.Class)
		if err != nil {
			return Workload{}, err
		}
		if e.Priority < 1 {
			return Workload{}, fmt.Errorf("workload: job %q priority %d < 1", e.ID, e.Priority)
		}
		if e.SubmitAt < 0 || math.IsNaN(e.SubmitAt) || math.IsInf(e.SubmitAt, 0) {
			return Workload{}, fmt.Errorf("workload: job %q submitAt %v", e.ID, e.SubmitAt)
		}
		w.Jobs = append(w.Jobs, JobSpec{
			ID: e.ID, Class: class, Priority: e.Priority, SubmitAt: e.SubmitAt,
		})
	}
	sort.SliceStable(w.Jobs, func(i, j int) bool { return w.Jobs[i].SubmitAt < w.Jobs[j].SubmitAt })
	return w, nil
}

// SaveFile writes a workload to path, picking the format by extension:
// ".csv" writes the CSV trace format, anything else the JSON document.
func SaveFile(path string, workload Workload, comment string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		return SaveCSV(f, workload)
	}
	return Save(f, workload, comment)
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
