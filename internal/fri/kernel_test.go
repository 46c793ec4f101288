package fri

import (
	"reflect"
	"runtime"
	"testing"

	"zkflow/internal/field"
	"zkflow/internal/poly"
	"zkflow/internal/transcript"
)

// TestProveByteDeterministicAcrossParallelism pins the parallel fold
// and layer-hashing paths to the serial ones: the proof must be
// identical at every worker count, since chunk boundaries depend only
// on sizes and every split is exact arithmetic over disjoint ranges.
func TestProveByteDeterministicAcrossParallelism(t *testing.T) {
	p := randomPoly(7, 64)
	evals := cosetEval(p, testShift, 1024)
	prove := func(workers int) *Proof {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		proof, err := Prove(evals, 64, testShift, transcript.New("fri-par"), DefaultParams)
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
}

// TestFoldIntoMatchesSerial checks foldInto against an inline serial
// formulation with a chained 1/x accumulator (the pre-ladder code).
func TestFoldIntoMatchesSerial(t *testing.T) {
	for _, n := range []int{4, 64, 512} {
		evals := cosetEval(randomPoly(int64(n), n/2), testShift, n)
		beta := field.New(0xfeedface)
		half := n / 2
		logN := 0
		for 1<<logN < n {
			logN++
		}
		w := field.RootOfUnity(logN)
		inv2 := field.Inv(field.New(2))
		xInv := field.Inv(testShift)
		wInv := field.Inv(w)
		want := make([]field.Elem, half)
		for j := 0; j < half; j++ {
			fx, fmx := evals[j], evals[j+half]
			even := field.Mul(field.Add(fx, fmx), inv2)
			odd := field.Mul(field.Mul(field.Sub(fx, fmx), inv2), xInv)
			want[j] = field.Add(even, field.Mul(beta, odd))
			xInv = field.Mul(xInv, wInv)
		}
		for _, workers := range []int{1, 3} {
			got := make([]field.Elem, half)
			foldInto(got, evals, testShift, beta, workers)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("n=%d workers=%d: fold diverges at %d", n, workers, j)
				}
			}
		}
	}
}

// TestProveLeavesCallerEvalsIntact pins the layer-0 aliasing contract:
// Prove commits the caller's slice directly and must never mutate or
// recycle it.
func TestProveLeavesCallerEvalsIntact(t *testing.T) {
	p := randomPoly(9, 32)
	evals := cosetEval(p, testShift, 512)
	snapshot := append([]field.Elem(nil), evals...)
	if _, err := Prove(evals, 32, testShift, transcript.New("fri-alias"), DefaultParams); err != nil {
		t.Fatal(err)
	}
	for i := range evals {
		if evals[i] != snapshot[i] {
			t.Fatalf("Prove mutated caller evals at %d", i)
		}
	}
}

// TestProofFinalOwnsMemory ensures the clear polynomial survives the
// pooled fold layers being recycled and reused by a later prove.
func TestProofFinalOwnsMemory(t *testing.T) {
	p := randomPoly(11, 64)
	evals := cosetEval(p, testShift, 1024)
	proof, err := Prove(evals, 64, testShift, transcript.New("fri-own"), DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	final := append(poly.Poly(nil), proof.Final...)
	// Churn the pools with a second proof over different data.
	p2 := randomPoly(12, 64)
	evals2 := cosetEval(p2, testShift, 1024)
	if _, err := Prove(evals2, 64, testShift, transcript.New("fri-own-2"), DefaultParams); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final, proof.Final) {
		t.Fatal("Proof.Final changed after pooled scratch was reused")
	}
	if err := Verify(proof, 1024, 64, testShift, transcript.New("fri-own"), DefaultParams, nil); err != nil {
		t.Fatalf("first proof no longer verifies after pool reuse: %v", err)
	}
}
