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
	goldenReceiptFile = "receipt_v1.bin"
	// presaltReceiptFile is the golden vector as the prover emitted it
	// while salts were SHA-256(seed || label || index). It is never
	// regenerated: it stands for every receipt already in the field.
	presaltReceiptFile = "receipt_v1_presalt.bin"
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
	seed := &[32]byte{0x5a, 0x6b, 0x76, 0x31} // "Zkv1"
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
// shows up as a byte diff against testdata/receipt_v1.bin. Regenerate
// deliberately with `go test ./internal/zkvm -run TestGoldenReceipt
// -update` and review the diff as a format change.
func TestGoldenReceipt(t *testing.T) {
	path := filepath.Join("testdata", goldenReceiptFile)
	got := goldenReceipt(t)

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d-byte golden receipt to %s", len(got), path)
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden vector (run with -update to generate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("receipt bytes diverged from golden vector: %d bytes generated, %d golden; "+
			"if the format change is intentional, regenerate with -update", len(got), len(want))
	}

	// The stored vector must also stand on its own: decode it and
	// verify it against the program, so the golden file is a valid
	// receipt and not just stable bytes.
	verifyStoredReceipt(t, want)
}

// TestPresaltReceiptStillVerifies makes "the salt PRF changed, the wire
// format and the verifier did not" a test: a receipt sealed before the
// change — whose salts the current prover would never derive — still
// decodes, verifies and re-encodes canonically, because a salt is
// opaque bytes to everything but the prover that drew it.
func TestPresaltReceiptStillVerifies(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", presaltReceiptFile))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(old, goldenReceipt(t)) {
		t.Fatal("pre-change vector equals the current golden receipt: it no longer tests anything")
	}
	verifyStoredReceipt(t, old)
}

// verifyStoredReceipt decodes a stored vector, verifies it against the
// sum program and checks that re-encoding reproduces its bytes.
func verifyStoredReceipt(t *testing.T, stored []byte) {
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
}
