//go:build race

package linalg

// raceEnabled lets allocation-count tests skip under the race detector,
// where sync.Pool (the GEMM's packing buffers) deliberately drops a
// fraction of Puts. The bench-gate still enforces the zero-alloc claim in
// a non-race build.
const raceEnabled = true
