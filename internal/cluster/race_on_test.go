//go:build race

package cluster

// raceEnabled tells the wall-clock bound and the allocation bound in this
// package that the race detector is on and they do not apply.
const raceEnabled = true
