//go:build race

package vartrack_test

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool (the interpreter's frame free list)
// drops items at random and allocation counts are not reproducible.
const raceEnabled = true
