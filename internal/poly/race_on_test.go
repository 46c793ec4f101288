//go:build race

package poly

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a quarter of what is Put on purpose, so whether a Get finds its
// buffer pooled is noise, and TestPooledBufferReuse skips.
const raceEnabled = true
