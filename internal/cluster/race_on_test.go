//go:build race

package cluster

// raceEnabled tells the one wall-clock bound in this package that the race
// detector is on and the bound does not apply.
const raceEnabled = true
