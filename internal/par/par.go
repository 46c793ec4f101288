// Package par provides the one deterministic fan-out shared by every
// prover in the repo: Each, and ForChunks as a chunking of it. Its
// callers are the zkVM seal (internal/zkvm), the Merkle builder
// (internal/merkle) and the STARK kernel (internal/fri,
// internal/stark). Width is resolved in
// one place (Workers, from GOMAXPROCS). A width of 1 runs everything
// inline in submission order, so the serial path is the degenerate
// case of the parallel one, and task and chunk boundaries depend only
// on (n, workers) — never on scheduling — so any write pattern indexed
// by position is deterministic and the emitted bytes are identical at
// every width.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the width of every prover crew: GOMAXPROCS. Operators set
// it through the GOMAXPROCS environment variable, and the determinism
// tests through runtime.GOMAXPROCS; nothing else does.
func Workers() int {
	return runtime.GOMAXPROCS(0)
}

// Each runs fn(i) for every i in [0, n) on a crew of at most workers
// goroutines that claim indices in ascending order, and waits for all
// of them. Claim-by-index keeps the crew busy whatever the tasks cost,
// so uneven work balances without tuning chunk sizes; which goroutine
// runs which index is scheduling-dependent, so fn must only write
// state owned by its index. With one worker (or fewer) the indices run
// inline in order.
func Each(workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForChunks splits [0, n) into one contiguous chunk per worker and
// runs fn over the chunks as Each tasks, so Each's crew is the one
// fan-out. Chunk boundaries depend only on (n, workers), so
// position-indexed writes are deterministic at any width. Small
// inputs, and a width below 2, run as one inline chunk.
func ForChunks(workers, n int, fn func(lo, hi int)) {
	if workers <= 1 || n < 2*workers {
		workers = 1
	}
	chunk := (n + workers - 1) / workers
	Each(workers, workers, func(c int) {
		if lo := c * chunk; lo < n {
			fn(lo, min(lo+chunk, n))
		}
	})
}
