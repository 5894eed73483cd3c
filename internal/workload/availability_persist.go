package workload

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// AvailabilityDocument is the serialized JSON capacity-trace format,
// mirroring the job-trace Document (version 1).
type AvailabilityDocument struct {
	// Version guards against format drift.
	Version int `json:"version"`
	// Comment is free-form provenance (profile, seed, base capacity).
	Comment string              `json:"comment,omitempty"`
	Events  []AvailabilityEntry `json:"events"`
}

// AvailabilityEntry is one serialized capacity event.
type AvailabilityEntry struct {
	At       float64 `json:"at"`
	Capacity int     `json:"capacity"`
}

// availabilityVersion is the format version written by SaveAvailability.
const availabilityVersion = 1

// availabilityCSVHeader is the column layout of the CSV capacity-trace
// format.
var availabilityCSVHeader = []string{"at", "capacity"}

// SaveAvailability writes a capacity trace as JSON.
func SaveAvailability(w io.Writer, tr AvailabilityTrace, comment string) error {
	doc := AvailabilityDocument{Version: availabilityVersion, Comment: comment}
	for _, ev := range tr.Events {
		doc.Events = append(doc.Events, AvailabilityEntry{At: ev.At, Capacity: ev.Capacity})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// LoadAvailability reads a capacity trace from JSON, applying
// AvailabilityTrace.Validate.
func LoadAvailability(r io.Reader) (AvailabilityTrace, error) {
	var doc AvailabilityDocument
	if err := decodeDocument(r, &doc); err != nil {
		return AvailabilityTrace{}, fmt.Errorf("workload: availability decode: %w", err)
	}
	if doc.Version != availabilityVersion {
		return AvailabilityTrace{}, fmt.Errorf("workload: unsupported availability version %d", doc.Version)
	}
	events := make([]CapacityEvent, len(doc.Events))
	for i, e := range doc.Events {
		events[i] = CapacityEvent(e)
	}
	return availabilityFromEvents(events)
}

// SaveAvailabilityCSV writes a capacity trace in the CSV format: a header
// row followed by one `at,capacity` row per event.
func SaveAvailabilityCSV(w io.Writer, tr AvailabilityTrace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(availabilityCSVHeader); err != nil {
		return fmt.Errorf("workload: availability csv: %w", err)
	}
	for _, ev := range tr.Events {
		rec := []string{
			strconv.FormatFloat(ev.At, 'g', -1, 64),
			strconv.Itoa(ev.Capacity),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("workload: availability csv: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// LoadAvailabilityCSV reads the CSV capacity-trace format with the same
// validation as LoadAvailability, one row at a time.
func LoadAvailabilityCSV(r io.Reader) (AvailabilityTrace, error) {
	cr, err := csvRows(r, "availability csv", availabilityCSVHeader)
	if err != nil {
		return AvailabilityTrace{}, err
	}
	var events []CapacityEvent
	for row := 1; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return availabilityFromEvents(events)
		}
		if err != nil {
			return AvailabilityTrace{}, fmt.Errorf("workload: availability csv: %w", err)
		}
		at, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return AvailabilityTrace{}, fmt.Errorf("workload: availability csv row %d at: %w", row, err)
		}
		capacity, err := strconv.Atoi(rec[1])
		if err != nil {
			return AvailabilityTrace{}, fmt.Errorf("workload: availability csv row %d capacity: %w", row, err)
		}
		events = append(events, CapacityEvent{At: at, Capacity: capacity})
	}
}

// availabilityFromEvents validates decoded events, sorted stably by time
// (simultaneous events keep file order, matching the job-trace loader).
func availabilityFromEvents(events []CapacityEvent) (AvailabilityTrace, error) {
	if len(events) == 0 {
		return AvailabilityTrace{}, fmt.Errorf("workload: availability document has no events")
	}
	sortCapacityEvents(events)
	tr := AvailabilityTrace{Events: events}
	if err := tr.Validate(); err != nil {
		return AvailabilityTrace{}, err
	}
	return tr, nil
}

// sortCapacityEvents orders events by time, keeping input order on ties.
func sortCapacityEvents(events []CapacityEvent) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
}

// SaveAvailabilityFile writes a capacity trace to path, picking the format
// by extension: ".csv" writes the CSV format, anything else the JSON
// document.
func SaveAvailabilityFile(path string, tr AvailabilityTrace, comment string) error {
	f, err := createFresh(path)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		err = SaveAvailabilityCSV(f, tr)
	} else {
		err = SaveAvailability(f, tr, comment)
	}
	return closeWritten(f, err)
}

// LoadAvailabilityFile reads a capacity trace from path, picking the format
// by extension.
func LoadAvailabilityFile(path string) (AvailabilityTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return AvailabilityTrace{}, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		return LoadAvailabilityCSV(f)
	}
	return LoadAvailability(f)
}
