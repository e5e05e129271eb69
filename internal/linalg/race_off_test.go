//go:build !race

package linalg

const raceEnabled = false
