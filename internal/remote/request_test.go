package remote

import (
	"slices"
	"testing"

	"zkflow/internal/zkvm"
)

// simpleProgram journals the sum of two input words.
func simpleProgram() *zkvm.Program {
	a := zkvm.NewAssembler()
	a.ReadInput(zkvm.R2)
	a.ReadInput(zkvm.R3)
	a.Add(zkvm.R4, zkvm.R2, zkvm.R3)
	a.WriteJournal(zkvm.R4)
	a.HaltCode(0)
	return a.MustAssemble()
}

// TestRequestRoundTrip pins decode(encode(x)) == x (the fuzz target
// only checks the reverse composition).
func TestRequestRoundTrip(t *testing.T) {
	prog, input := simpleProgram(), []uint32{7, 35, 0xffffffff}
	for _, opts := range []zkvm.ProveOptions{{Checks: 48}, {Checks: 9, SegmentCycles: 4096}} {
		req := EncodeRequest(prog, input, opts)
		p2, in2, o2, err := DecodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if p2.ID() != prog.ID() {
			t.Fatal("program lost")
		}
		if !slices.Equal(in2, input) {
			t.Fatalf("input %v, want %v", in2, input)
		}
		if o2.Checks != opts.Checks || o2.SegmentCycles != opts.SegmentCycles {
			t.Fatalf("options lost: %+v", o2)
		}
		if _, _, _, err := DecodeRequest(req[:len(req)-2]); err == nil {
			t.Fatal("truncated request accepted")
		}
	}
}

func TestDecodeRequestRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("tiny"), make([]byte, 40)} {
		if _, _, _, err := DecodeRequest(data); err == nil {
			t.Fatalf("accepted %d bytes of garbage", len(data))
		}
	}
	good := EncodeRequest(simpleProgram(), []uint32{1}, zkvm.ProveOptions{})
	good[8] = 2 // the reserved word
	if _, _, _, err := DecodeRequest(good); err == nil {
		t.Fatal("nonzero reserved word accepted: the framing is no longer canonical")
	}
}
