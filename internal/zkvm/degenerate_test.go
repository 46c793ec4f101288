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
