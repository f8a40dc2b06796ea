//go:build race

package netsim

// raceEnabled reports whether the race detector is instrumenting this
// build; allocation-count tests skip themselves under it because the
// detector's shadow allocations break testing.AllocsPerRun.
const raceEnabled = true
