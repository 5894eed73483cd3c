package workload

import (
	"fmt"
	"sort"
)

// availabilityFromEvents is the capacity-trace validator: it sorts decoded
// events stably by time (simultaneous events keep file order, matching the
// job-trace loader) and applies AvailabilityTrace.Validate.
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

// SaveAvailabilityFile writes a capacity trace to path in the CSV format,
// whatever the path is named. The format has no comment row, so comment is
// not written.
func SaveAvailabilityFile(path string, tr AvailabilityTrace, comment string) error {
	f, err := CreateFresh(path)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	return closeWritten(f, saveAvailabilityCSV(f, tr))
}

// LoadAvailabilityFile reads a CSV capacity trace from path, through a
// window as LoadFile reads a job trace.
func LoadAvailabilityFile(path string) (AvailabilityTrace, error) {
	return loadPath(path, loadAvailabilityCSV)
}
