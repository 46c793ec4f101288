//go:build !race

package zkvm

const raceEnabled = false
