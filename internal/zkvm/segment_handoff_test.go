package zkvm

import (
	"bytes"
	"testing"
)

// handoffProgram is a loop long enough to split into several segments
// at the minimum segment size, touching memory so boundary images are
// nonempty.
func handoffProgram(t *testing.T) (*Program, []uint32) {
	t.Helper()
	a := NewAssembler()
	a.ReadInput(2) // r2 = loop count
	a.Li(3, 0)     // r3 = i
	a.Li(4, 0)     // r4 = acc
	a.Label("loop")
	a.Add(4, 4, 3)
	a.Sw(4, 3, 0) // mem[i] = acc
	a.Addi(3, 3, 1)
	a.Bltu(3, 2, "loop")
	a.WriteJournal(4)
	a.HaltCode(0)
	return a.MustAssemble(), []uint32{60}
}

func handoffOpts() ProveOptions {
	return ProveOptions{Checks: 4, SegmentCycles: minSegmentCycles}
}

// TestSegmentRunMatchesSingleProver is the distributed-proving
// contract: proving each segment independently through SegmentRun and
// putting the receipts in index order yields byte-identical output to
// the single prover under the same master seed.
func TestSegmentRunMatchesSingleProver(t *testing.T) {
	prog, input := handoffProgram(t)
	opts := handoffOpts()
	seed := [32]byte{1, 2, 3, 4}

	golden, err := ProveSeeded(prog, input, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if golden.NumSegments() < 2 {
		t.Fatalf("want >=2 segments, got %d", golden.NumSegments())
	}
	goldenBytes, err := golden.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	n, err := PlanSegments(prog, input, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n != golden.NumSegments() {
		t.Fatalf("PlanSegments = %d, prover produced %d", n, golden.NumSegments())
	}

	// Prove each segment in its own run (as distinct workers would),
	// round-tripping through the farm's wire form — a one-segment
	// composite — in scrambled order.
	receipts := make([]*SegmentReceipt, n)
	for i := n - 1; i >= 0; i-- {
		run, err := NewSegmentRun(prog, input, opts, seed)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := run.ProveSegment(i)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := (&Receipt{Segments: []*SegmentReceipt{sr}}).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalReceipt(wire)
		if err != nil {
			t.Fatal(err)
		}
		receipts[i] = back.Segments[0]
		run.Release()
	}
	c := &Receipt{Segments: receipts}
	got, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, goldenBytes) {
		t.Fatal("assembled composite differs from single-prover bytes")
	}
	if err := Verify(prog, c, VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentRunConcurrent proves all segments concurrently from one
// shared run — the worker-cache shape — and checks determinism.
func TestSegmentRunConcurrent(t *testing.T) {
	prog, input := handoffProgram(t)
	opts := handoffOpts()
	seed := [32]byte{9}

	golden, err := ProveSeeded(prog, input, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewSegmentRun(prog, input, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Release()
	n := run.Segments()
	receipts := make([]*SegmentReceipt, n)
	errs := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			receipts[i], errs[i] = run.ProveSegment(i)
			done <- i
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("segment %d: %v", i, e)
		}
	}
	c := &Receipt{Segments: receipts}
	got, _ := c.MarshalBinary()
	want, _ := golden.MarshalBinary()
	if !bytes.Equal(got, want) {
		t.Fatal("concurrent segment proofs differ from single-prover bytes")
	}
}

// TestProveSeededDeterministic pins the seeded prover on both of its
// paths: the same seed gives the same bytes, whole run or segmented.
func TestProveSeededDeterministic(t *testing.T) {
	prog, input := handoffProgram(t)
	seed := [32]byte{42}
	for _, opts := range []ProveOptions{{Checks: 4}, handoffOpts()} {
		r1, err := ProveSeeded(prog, input, opts, seed)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ProveSeeded(prog, input, opts, seed)
		if err != nil {
			t.Fatal(err)
		}
		b1, _ := r1.MarshalBinary()
		b2, _ := r2.MarshalBinary()
		if !bytes.Equal(b1, b2) {
			t.Fatalf("SegmentCycles=%d: ProveSeeded not deterministic", opts.SegmentCycles)
		}
		if err := VerifyAny(prog, r1, VerifyOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}
