package zkvm

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestMonolithicIsTheGenesisFinalSegment: Verify is verifySegment over
// Receipt.asSegment, for a fresh receipt and for the stored golden
// vector — and the view changes nothing about what a monolithic seal is bound to.
// The same view presented as a one-segment composite is a statement in
// the other domain, re-derives every sampled index, and fails.
func TestMonolithicIsTheGenesisFinalSegment(t *testing.T) {
	prog := sumProgram()
	fresh, err := Prove(prog, sumInput(16), ProveOptions{Checks: 8})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("testdata", goldenReceiptFile))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := UnmarshalReceipt(data)
	if err != nil {
		t.Fatal(err)
	}
	receipts := map[string]*Receipt{"fresh": fresh, goldenReceiptFile: golden}
	for name, r := range receipts {
		if err := Verify(prog, r, VerifyOptions{MinChecks: 8}); err != nil {
			t.Errorf("%s: Verify: %v", name, err)
		}
		if err := VerifyComposite(prog, &CompositeReceipt{Segments: []*SegmentReceipt{r.asSegment()}}, VerifyOptions{}); err == nil {
			t.Errorf("%s: monolithic seal verified as a one-segment composite", name)
		}
	}
}

// TestOneSegmentCompositeAgreesWithMonolithic: the same run sealed both
// ways verifies both ways and says the same thing; and the composite's
// one segment, stripped to a Receipt, is not a monolithic receipt.
func TestOneSegmentCompositeAgreesWithMonolithic(t *testing.T) {
	prog, input := segTestProgram(t), []uint32{40, 5}
	opts := ProveOptions{Checks: 8, SegmentCycles: 1 << 20}
	mono, err := proveMonoSeeded(prog, input, opts, &segTestSeed)
	if err != nil {
		t.Fatal(err)
	}
	c := mustComposite(t, prog, input, opts)
	if c.NumSegments() != 1 || int(c.Segments[0].Seal.NumRows) != int(mono.Seal.NumRows) {
		t.Fatalf("%d segments of %d rows, want one of %d", c.NumSegments(), c.Segments[0].Seal.NumRows, mono.Seal.NumRows)
	}
	for _, r := range []AnyReceipt{mono, c} {
		if err := VerifyAny(prog, r, VerifyOptions{MinChecks: 8}); err != nil {
			t.Fatalf("%T: %v", r, err)
		}
	}
	if !slices.Equal(mono.Journal, c.JournalWords()) || mono.ExitCode != c.ExitStatus() || mono.Image() != c.Image() {
		t.Fatal("monolithic receipt and one-segment composite disagree on the statement")
	}
	sr := c.Segments[0]
	stripped := &Receipt{ImageID: sr.ImageID, ExitCode: sr.ExitCode, Journal: sr.Journal, Seal: sr.Seal}
	if err := Verify(prog, stripped, VerifyOptions{}); err == nil {
		t.Fatal("segment seal verified as a monolithic receipt")
	}
}
