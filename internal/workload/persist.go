package workload

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"os"
	"sort"

	"elastichpc/internal/model"
)

func classByName(name string) (model.Class, error) {
	for _, c := range model.AllClasses() {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown job class %q", name)
}

// jobList is the job-trace validator: add checks a job as its row is decoded,
// workload checks the list as a whole.
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
	if !(submitAt >= 0 && submitAt <= model.MaxSeconds) {
		return fmt.Errorf("workload: job %q submitAt %v: want 0 to %g s", id, submitAt, model.MaxSeconds)
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

// SaveFile writes a workload to path in the CSV trace format, whatever the
// path is named. The format has no comment row, so comment is not written.
func SaveFile(path string, workload Workload, comment string) error {
	f, err := CreateFresh(path)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	return closeWritten(f, saveCSV(f, workload))
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

// LoadFile reads a CSV workload trace from path. The file is read whole, in
// one read sized from its length.
func LoadFile(path string) (Workload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Workload{}, fmt.Errorf("workload: %w", err)
	}
	return loadCSV(bytesString(data))
}
