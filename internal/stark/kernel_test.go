package stark

import (
	"reflect"
	"runtime"
	"testing"

	"zkflow/internal/transcript"
)

// TestProveByteDeterministicAcrossParallelism pins the whole prover —
// column-parallel LDE, parallel commit, chunked composition, parallel
// FRI — to the serial formulation: identical proofs at every width.
func TestProveByteDeterministicAcrossParallelism(t *testing.T) {
	const n = 256
	trace, final := fibTrace(n)
	a := &fibAIR{final: final}
	copy(a.start[:], trace[0])
	prove := func(workers int) *Proof {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		proof, err := Prove(a, trace, transcript.New("fib-par"), DefaultParams)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return proof
	}
	base := prove(1)
	for _, workers := range []int{2, 4, 7} {
		got := prove(workers)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("proof at parallelism %d differs from serial", workers)
		}
	}
	if err := Verify(a, base, transcript.New("fib-par"), DefaultParams); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestProveSteadyStateAllocsBounded is the allocation-regression gate
// for the pooled prover: with warm caches and pools, proving must cost
// a small bounded number of allocations (proof assembly, transcript,
// per-chunk row scratch) — not the O(domain * columns) the unpooled
// kernel paid. The bound has headroom over the measured value; the
// point is catching a regression back to per-call domain-size
// allocations (tens of thousands at this size).
func TestProveSteadyStateAllocsBounded(t *testing.T) {
	const n = 256
	trace, final := fibTrace(n)
	a := &fibAIR{final: final}
	copy(a.start[:], trace[0])
	prove := func() {
		if _, err := Prove(a, trace, transcript.New("fib-allocs"), DefaultParams); err != nil {
			t.Fatal(err)
		}
	}
	prove() // warm twiddles, ladders, buffer pools, tree arenas
	allocs := testing.AllocsPerRun(5, prove)
	// Measured ~700 at n=256 (proof rows, merkle paths, transcript
	// churn); domain-size regressions show up as 5000+.
	if allocs > 1500 {
		t.Fatalf("steady-state Prove allocates %v per run, want <= 1500", allocs)
	}
}
