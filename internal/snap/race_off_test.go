//go:build !race

package snap_test

const raceEnabled = false
