//go:build race

package core

// raceEnabled shortens the long-stream drift gate under the race
// detector, which slows the update ~20x: the race build checks the
// parallel engine's rank goroutines, while the full-length numerical
// gate runs in the ordinary build.
const raceEnabled = true
