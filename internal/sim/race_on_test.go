//go:build race

package sim

// raceEnabled tells the allocation budget in this package that the race
// detector is on and the count does not apply.
const raceEnabled = true
