//go:build race

package slab

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a quarter of what is Put on purpose, so whether a Get finds its
// slab pooled is noise, and the reuse tests skip.
const raceEnabled = true
