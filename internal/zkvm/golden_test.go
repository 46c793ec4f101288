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
	goldenReceiptFile = "receipt_v3.bin"
	// The segmented sealer's vector: four segments, so every continuation
	// check family and both kinds of boundary are in it.
	goldenCompositeFile = "composite_v3.bin"
	// The format-v2 vectors (four whole records per leaf, exec leaves
	// included) are what the parent of format v3 sealed: its golden
	// vector and a four-segment composite. Like the v1 ones below they
	// are never regenerated.
	v2ReceiptFile   = "receipt_v2.bin"
	v2CompositeFile = "composite_v2.bin"
	// The format-v1 vectors (one record per leaf) are never regenerated
	// — no prover emits that format any more. They stand for every
	// receipt already in the field: the golden vector as of the PRF
	// salts, the one from before them (salts SHA-256(seed || label ||
	// index)), and a four-segment composite, which carries every
	// continuation check family.
	v1ReceiptFile        = "receipt_v1.bin"
	v1PresaltReceiptFile = "receipt_v1_presalt.bin"
	v1CompositeFile      = "composite_v1.bin"
)

// goldenReceipt proves the sum program over a fixed input with a
// fixed transcript seed, so the receipt bytes are fully deterministic
// across runs and machines.
func goldenReceipt(t *testing.T) []byte {
	t.Helper()
	ex, err := Execute(sumProgram(), sumInput(16), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seed := &[32]byte{0x5a, 0x6b, 0x76, 0x31} // "Zkv1": the seed of the v1 vector too
	r, err := proveExecutionSeeded(ex, ProveOptions{Checks: 8}, seed)
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
// shows up as a byte diff against testdata/receipt_v3.bin. Regenerate
// deliberately with `go test ./internal/zkvm -run TestGolden -update`
// and review the diff as a format change.
func TestGoldenReceipt(t *testing.T) {
	want := checkGolden(t, goldenReceiptFile, goldenReceipt(t))

	// The stored vector must also stand on its own: decode it and
	// verify it against the program, so the golden file is a valid
	// receipt and not just stable bytes.
	verifyStoredReceipt(t, want)
}

// TestGoldenComposite pins the segmented sealer the same way: the
// monolithic vector alone would let the two drift apart in everything a
// segment has and a whole run does not (sub-seeds, boundary images, the
// import, exit and cover families).
func TestGoldenComposite(t *testing.T) {
	prog := segTestProgram(t)
	c, err := ProveSegmentedWithSeed(prog, []uint32{300, 5}, ProveOptions{Checks: 8, SegmentCycles: 1 << 10}, segTestSeed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	stored, err := UnmarshalComposite(checkGolden(t, goldenCompositeFile, got))
	if err != nil {
		t.Fatalf("stored vector does not decode: %v", err)
	}
	if len(stored.Segments) != 4 {
		t.Fatalf("stored vector has %d segments, want 4", len(stored.Segments))
	}
	if err := VerifyComposite(prog, stored, VerifyOptions{MinChecks: 8}); err != nil {
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

// TestV1ReceiptsStillVerify and TestV2ReceiptsStillVerify make "the
// older formats are the same verifier reading a different leaf layout" a
// test: receipts no current prover would emit — sealed one record per
// leaf (v1, one of them with salts from before the PRF) or four whole
// rows per exec leaf (v2), under their own transcript labels — still
// decode by their magic, verify, and re-encode to the bytes they came
// from.
func TestV1ReceiptsStillVerify(t *testing.T) {
	oldFormatStillVerifies(t, FormatV1, []string{v1ReceiptFile, v1PresaltReceiptFile}, v1CompositeFile, FormatV3)
}

func TestV2ReceiptsStillVerify(t *testing.T) {
	oldFormatStillVerifies(t, FormatV2, []string{v2ReceiptFile}, v2CompositeFile, FormatV3)
	// Nor do the two old formats mix with each other.
	oldFormatStillVerifies(t, FormatV2, nil, v2CompositeFile, FormatV1)
}

// oldFormatStillVerifies checks the stored mono vectors and the stored
// four-segment composite of format f, and that the composite stops
// encoding and verifying once one of its segments claims format other.
func oldFormatStillVerifies(t *testing.T, f Format, monos []string, composite string, other Format) {
	t.Helper()
	current := goldenReceipt(t)
	for _, name := range monos {
		old, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(old, current) {
			t.Fatalf("%s equals the current golden receipt: it no longer tests anything", name)
		}
		if r := verifyStoredReceipt(t, old); r.Seal.Format != f {
			t.Fatalf("%s decoded as format %d, want %d", name, r.Seal.Format, f)
		}
	}

	old, err := os.ReadFile(filepath.Join("testdata", composite))
	if err != nil {
		t.Fatal(err)
	}
	any, err := UnmarshalAnyReceipt(old)
	if err != nil {
		t.Fatalf("%s does not decode: %v", composite, err)
	}
	c := any.(*CompositeReceipt)
	if len(c.Segments) != 4 || c.Segments[3].Seal.Format != f {
		t.Fatalf("%s decoded as %d segments of format %d", composite, len(c.Segments), c.Segments[0].Seal.Format)
	}
	if err := VerifyAny(segTestProgram(t), c, VerifyOptions{}); err != nil {
		t.Fatalf("%s does not verify: %v", composite, err)
	}
	if reenc, err := c.MarshalBinary(); err != nil || !bytes.Equal(reenc, old) {
		t.Fatalf("%s is not canonical: decode+re-encode changed bytes (err %v)", composite, err)
	}
	if c.Size() != len(old) {
		t.Fatalf("%s: Size() = %d, encoding has %d bytes", composite, c.Size(), len(old))
	}
	// A standalone segment keeps its format's own magic too (the farm
	// ships segments in that encoding).
	seg, err := MarshalSegmentReceipt(c.Segments[1])
	if err != nil {
		t.Fatal(err)
	}
	if back, err := UnmarshalSegmentReceipt(seg); err != nil || back.Seal.Format != f {
		t.Fatalf("standalone segment of %s does not round-trip: %v", composite, err)
	}
	// One format per composite: a chain mixing two cannot be encoded,
	// assembled or verified.
	c.Segments[2].Seal.Format = other
	if _, err := c.MarshalBinary(); err == nil {
		t.Fatal("mixed-format composite encoded")
	}
	if _, err := AssembleComposite(c.Segments); err == nil {
		t.Fatal("mixed-format composite assembled")
	}
	if err := VerifyComposite(segTestProgram(t), c, VerifyOptions{}); err == nil {
		t.Fatal("mixed-format composite verified")
	}
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
