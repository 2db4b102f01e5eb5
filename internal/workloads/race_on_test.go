//go:build race

package workloads

// raceEnabled reports whether the race detector is compiled in.
// TestBackingBytes runs sixteen ref-size applications on both loops, one
// goroutine each, about two minutes under the detector and nothing for
// it to find; it runs race-free in `make test`.
const raceEnabled = true
