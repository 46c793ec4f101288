package zkvm

import (
	"bytes"
	"testing"
)

// fuzzReceiptBytes builds a small valid receipt for seeding the
// corpus (Checks kept low so the seed stays compact).
func fuzzReceiptBytes(f *testing.F) []byte {
	f.Helper()
	ex, err := Execute(sumProgram(), sumInput(8), ExecOptions{})
	if err != nil {
		f.Fatal(err)
	}
	r, err := proveExecutionSeeded(ex, ProveOptions{Checks: 4}, &[32]byte{})
	if err != nil {
		f.Fatal(err)
	}
	data, err := r.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// fuzzCompositeBytes builds a two-segment composite and the payload a
// farm worker sends for its second segment: that segment alone, as a
// one-segment composite.
func fuzzCompositeBytes(f *testing.F) (composite, farmSegment []byte) {
	f.Helper()
	c, err := ProveSeeded(sumProgram(), sumInput(8), ProveOptions{Checks: 1, SegmentCycles: minSegmentCycles}, [32]byte{})
	if err != nil {
		f.Fatal(err)
	}
	if c.NumSegments() != 2 {
		f.Fatalf("%d segments, want 2", c.NumSegments())
	}
	if composite, err = c.MarshalBinary(); err != nil {
		f.Fatal(err)
	}
	if farmSegment, err = (&Receipt{Segments: c.Segments[1:]}).MarshalBinary(); err != nil {
		f.Fatal(err)
	}
	return composite, farmSegment
}

// FuzzUnmarshalReceipt drives the magic-dispatching decoder — the one
// decoder the farm coordinator runs on every result a worker sends —
// over arbitrary bytes: it must never panic, and anything it accepts,
// receipt or composite, must re-encode to exactly the input (the
// encoding is canonical, so accept + re-encode is the round-trip
// identity).
func FuzzUnmarshalReceipt(f *testing.F) {
	valid := fuzzReceiptBytes(f)
	composite, farmSegment := fuzzCompositeBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:4])
	f.Add([]byte{})
	f.Add(composite)
	f.Add(farmSegment)
	f.Add(composite[:len(composite)/2])
	// Every retired magic — the folded receipt's "zkf4", formats v1 and
	// v2's "zkf1"–"zkf3", "zkf5"–"zkf7", and the standalone segment's
	// "zkfb" — over a valid receipt's body.
	for _, m := range retiredMagics {
		f.Add(append([]byte{m, 'f', 'k', 'z'}, valid[4:]...))
	}
	mut := append([]byte(nil), valid...)
	mut[len(mut)/3] ^= 0xff
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalAnyReceipt(data)
		if err != nil {
			return // rejected; the only requirement is no panic
		}
		out, err := r.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted %T failed to re-encode: %v", r, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("%T re-encode mismatch: %d bytes in, %d out", r, len(data), len(out))
		}
	})
}

// FuzzDecodeProgram drives the instruction decoder: no panics, every
// opcode of an accepted program has a name, and the program re-encodes
// byte-for-byte.
func FuzzDecodeProgram(f *testing.F) {
	f.Add(sumProgram().Encode())
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})                // not a multiple of the instruction size
	f.Add(make([]byte, 8))                // opcode 0 = invalid
	f.Add([]byte{9, 0, 0, 0, 0, 0, 0, 0}) // opcode 9 is retired
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProgram(data)
		if err != nil {
			return
		}
		for i, in := range p.Instrs {
			if opNames[in.Op] == "" {
				t.Fatalf("instr %d: unnamed opcode %d accepted", i, in.Op)
			}
		}
		if !bytes.Equal(p.Encode(), data) {
			t.Fatal("program re-encode mismatch")
		}
	})
}
