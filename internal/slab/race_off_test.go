//go:build !race

package slab

const raceEnabled = false
