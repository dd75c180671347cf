//go:build !race

package vartrack_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
