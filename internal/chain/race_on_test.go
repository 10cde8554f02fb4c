//go:build race

package chain

// raceEnabled reports whether the race detector is active. AllocsPerRun
// assertions are skipped under -race: its instrumentation allocates on
// paths that are allocation-free in a normal build.
const raceEnabled = true
