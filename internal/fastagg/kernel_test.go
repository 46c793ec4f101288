package fastagg

import (
	"reflect"
	"runtime"
	"testing"

	"zkflow/internal/field"
	"zkflow/internal/stark"
)

// TestProveByteDeterministicAcrossParallelism pins the chain prover to
// the serial formulation at every GOMAXPROCS width.
// It also exercises the round-constant memo under the prover's
// concurrent composition scan (go test -race makes that a race gate).
func TestProveByteDeterministicAcrossParallelism(t *testing.T) {
	in := testInput()
	prove := func(workers int) *Proof {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		p, err := Prove(in, 512, stark.DefaultParams)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return p
	}
	base := prove(1)
	for _, workers := range []int{2, 4} {
		if got := prove(workers); !reflect.DeepEqual(base, got) {
			t.Fatalf("proof at parallelism %d differs from serial", workers)
		}
	}
	if err := Verify(base, stark.DefaultParams); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestRCMemoMatchesDirectEval checks the memoized round-constant
// values against direct periodic-polynomial evaluation, including the
// hit path (second call must return the identical values).
func TestRCMemoMatchesDirectEval(t *testing.T) {
	a := newChainAIR(testInput(), testInput())
	for _, arg := range []field.Elem{field.One, field.New(12345), field.New(0xffffffff00000000)} {
		got := a.rcValues(arg)
		hit := a.rcValues(arg)
		if got != hit {
			t.Fatal("memo miss on second lookup")
		}
		for j := range got {
			if want := a.rc[j].EvalWithArg(arg); got[j] != want {
				t.Fatalf("rcValues(%d)[%d] = %d, want %d", arg, j, got[j], want)
			}
		}
	}
}

// TestBuildTraceRowsIsolated pins the slab layout: rows must not share
// capacity, so an append to one row can never corrupt its neighbour.
func TestBuildTraceRowsIsolated(t *testing.T) {
	trace := buildTrace(testInput(), 16)
	r0 := trace[0]
	want := append([]field.Elem(nil), trace[1]...)
	_ = append(r0, field.One) // must reallocate, not spill into row 1
	for i := range want {
		if trace[1][i] != want[i] {
			t.Fatalf("append to row 0 corrupted row 1 at col %d", i)
		}
	}
}
