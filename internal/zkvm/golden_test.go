package zkvm

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "regenerate golden receipt vectors")

const (
	// A one-segment vector: a run proved without SegmentCycles.
	goldenReceiptFile = "receipt_v6.bin"
	// A four-segment vector, so every continuation check family and both
	// kinds of boundary are in it.
	goldenCompositeFile = "composite_v6.bin"
)

// goldenReceipt proves the sum program over a fixed input with a
// fixed transcript seed, so the receipt bytes are fully deterministic
// across runs and machines.
func goldenReceipt(t *testing.T) []byte {
	t.Helper()
	seed := [32]byte{0x5a, 0x6b, 0x76, 0x31} // "Zkv1"
	r, err := ProveSeeded(sumProgram(), sumInput(16), ProveOptions{Checks: 8}, seed)
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenReceipt pins the receipt wire format: any change to the
// trace layout, transcript schedule, Merkle arity, or seal encoding
// shows up as a byte diff against testdata/receipt_v6.bin. Regenerate
// deliberately with `go test ./internal/zkvm -run TestGolden -update`
// and review the diff as a format change.
func TestGoldenReceipt(t *testing.T) {
	want := checkGolden(t, goldenReceiptFile, goldenReceipt(t))

	// The stored vector must also stand on its own: decode it and
	// verify it against the program, so the golden file is a valid
	// receipt and not just stable bytes.
	verifyStoredReceipt(t, want)
}

// TestGoldenComposite pins a many-segment run the same way: the
// one-segment vector has no boundary, so it leaves out everything a
// boundary brings (boundary images as final tables and as entry images,
// the init family).
func TestGoldenComposite(t *testing.T) {
	prog := segTestProgram(t)
	c, err := ProveSeeded(prog, []uint32{300, 5}, ProveOptions{Checks: 8, SegmentCycles: 1 << 10}, segTestSeed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	stored, err := UnmarshalReceipt(checkGolden(t, goldenCompositeFile, got))
	if err != nil {
		t.Fatalf("stored vector does not decode: %v", err)
	}
	if len(stored.Segments) != 4 {
		t.Fatalf("stored vector has %d segments, want 4", len(stored.Segments))
	}
	if err := Verify(prog, stored, VerifyOptions{MinChecks: 8}); err != nil {
		t.Fatalf("stored vector does not verify: %v", err)
	}
}

// checkGolden compares got with the stored vector (rewriting it first
// under -update) and returns the stored bytes.
func checkGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d-byte golden vector to %s", len(got), path)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden vector (run with -update to generate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: bytes diverged from golden vector: %d bytes generated, %d golden; "+
			"if the format change is intentional, regenerate with -update", name, len(got), len(want))
	}
	return want
}

// verifyStoredReceipt decodes a stored vector, verifies it against the
// sum program and checks that re-encoding reproduces its bytes.
func verifyStoredReceipt(t *testing.T, stored []byte) *Receipt {
	t.Helper()
	r, err := UnmarshalReceipt(stored)
	if err != nil {
		t.Fatalf("stored vector does not decode: %v", err)
	}
	if err := Verify(sumProgram(), r, VerifyOptions{}); err != nil {
		t.Fatalf("stored vector does not verify: %v", err)
	}
	reenc, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, stored) {
		t.Fatal("stored vector is not canonical: decode+re-encode changed bytes")
	}
	if r.Size() != len(stored) {
		t.Fatalf("Size() = %d, encoding has %d bytes", r.Size(), len(stored))
	}
	return r
}
