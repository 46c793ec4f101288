package zkvm

import (
	"bytes"
	"testing"
)

// TestNoCutIsACutPastTheRun: a run proved without SegmentCycles is the
// one-segment chain a cut longer than the run gives, byte for byte.
// There is one prover path; never cutting is its degenerate case, not a
// sibling with its own statement or encoding.
func TestNoCutIsACutPastTheRun(t *testing.T) {
	prog, input := segTestProgram(t), []uint32{40, 5}
	var want []byte
	for _, cut := range []int{0, 1 << 20, DefaultMaxSteps} {
		r := mustProve(t, prog, input, ProveOptions{Checks: 8, SegmentCycles: cut})
		if r.NumSegments() != 1 {
			t.Fatalf("SegmentCycles=%d: %d segments, want 1", cut, r.NumSegments())
		}
		if err := Verify(prog, r, VerifyOptions{MinChecks: 8}); err != nil {
			t.Fatalf("SegmentCycles=%d: %v", cut, err)
		}
		got, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("SegmentCycles=%d: bytes differ from SegmentCycles=0", cut)
		}
	}
}

// TestDefaultCut: zero options cut a run every DefaultSegmentCycles
// steps, so a guest that runs past it proves as ⌈steps / 2^20⌉
// segments — byte for byte the run proved with SegmentCycles set to
// DefaultSegmentCycles.
func TestDefaultCut(t *testing.T) {
	// anyTrace is process-wide and this run is the package's largest:
	// put it back, so the slab-pool gates that run later size against
	// the traces of their own guests.
	defer anyTrace.Store(anyTrace.Load())
	prog := asm(func(a *Assembler) {
		a.ReadInput(R3)
		a.Label("loop")
		a.Addi(R2, R2, 1)
		a.Bltu(R2, R3, "loop")
		a.WriteJournal(R2)
		a.HaltCode(0)
	})
	input := []uint32{600_000}
	ex, err := Execute(prog, input, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	steps := len(ex.Rows) - 1
	if steps <= DefaultSegmentCycles {
		t.Fatalf("%d steps do not pass the default cut", steps)
	}
	want := (steps + DefaultSegmentCycles - 1) / DefaultSegmentCycles
	var first []byte
	for _, opts := range []ProveOptions{{}, {SegmentCycles: DefaultSegmentCycles}} {
		r := mustProve(t, prog, input, opts)
		if r.NumSegments() != want {
			t.Fatalf("SegmentCycles=%d: %d segments for %d steps, want %d", opts.SegmentCycles, r.NumSegments(), steps, want)
		}
		if err := Verify(prog, r, VerifyOptions{MinChecks: DefaultChecks}); err != nil {
			t.Fatalf("SegmentCycles=%d: %v", opts.SegmentCycles, err)
		}
		got, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatal("SegmentCycles=DefaultSegmentCycles: bytes differ from zero options")
		}
	}
}
