//go:build !race

package poly

const raceEnabled = false
