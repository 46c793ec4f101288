//go:build race

package zkvm

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a quarter of what is Put on purpose, so whether a run finds its
// trace slabs pooled is noise, and TestExecuteConstantAllocs skips.
const raceEnabled = true
