//go:build race

package snap_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
