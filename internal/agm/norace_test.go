//go:build !race

package agm

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
