//go:build race

package remote

import "time"

// dispatchOverheadBound is TestFarmDispatchOverhead's wall-clock bound.
// Under the race detector every multi-megabyte allocation and copy on
// the dispatch path costs tens of milliseconds: the twelve 4 MB jobs
// that cost 0.1–0.25 s without it cost 1.4–2.6 s with it (2 CPUs, this
// commit and its parent alike), so the 2 s bound failed every other
// run there. 5 s keeps the assertion in the race lane with the headroom
// the plain bound has.
const dispatchOverheadBound = 5 * time.Second
