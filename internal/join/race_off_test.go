//go:build !race

package join

// raceEnabled reports whether the race detector is compiled in; its
// shadow memory inflates the heap, so footprint-budget tests skip
// under it.
const raceEnabled = false
