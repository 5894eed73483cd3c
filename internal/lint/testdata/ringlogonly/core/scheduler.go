package core

// Scheduler mirrors the real scheduler's embedded ring.
type Scheduler struct {
	log  logRing
	free int
}

// sidestep fabricates and injects decisions around the log.go paths: every
// touch is flagged.
func (s *Scheduler) sidestep(id string) {
	d := Decision{JobID: id} // want "constructed outside log.go"
	s.log.add(d)             // want "logRing.add called outside log.go"
	s.log.head = 0           // want "write to the decision ring"
}

// replace swaps the whole ring out: flagged as a Scheduler.log write.
func (s *Scheduler) replace(r logRing) {
	s.log = r // want "Scheduler.log"
}

// tamper rewrites logged decisions in place outside log.go: every write to
// a record or to a slice element is flagged.
func (s *Scheduler) tamper(ds []Decision, d Decision) {
	ds[0].Replicas = 0  // want "core.Decision field Replicas"
	ds[1] = d           // want "a core.Decision slice element"
	ds[2].Replicas++    // want "core.Decision field Replicas"
	copy(ds, s.log.buf) // want "core.Decision slice elements"
	p := &ds[3]
	p.JobID += "x" // want "core.Decision field JobID"
}

// read-only access is fine.
func (s *Scheduler) depth() int {
	return s.log.n + s.free
}
