package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"zkflow/internal/zkvm"
)

var updateStored = flag.Bool("update", false, "rewrite testdata/checkpoint_v6.bin from a seeded run")

func TestVerifierStateRoundTrip(t *testing.T) {
	sim, p, v := pipeline(t, 24, 2, 6)
	r0, err := p.AggregateEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyAggregation(r0.Receipt); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := v.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadVerifier(&buf, sim.Ledger)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Rounds() != 1 || restored.TrustedRoot() != v.TrustedRoot() {
		t.Fatal("verifier state lost")
	}
	// The restored verifier accepts the next round...
	r1, err := p.AggregateEpoch(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.VerifyAggregation(r1.Receipt); err != nil {
		t.Fatalf("restored verifier rejects valid round: %v", err)
	}
	// ...and still rejects a replay of round 0.
	if _, err := restored.VerifyAggregation(r0.Receipt); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("restored verifier accepted a replay: %v", err)
	}
}

func TestLoadVerifierRejectsGarbage(t *testing.T) {
	if _, err := LoadVerifier(bytes.NewReader([]byte("short")), nil); err == nil {
		t.Fatal("garbage accepted")
	}
	bad := make([]byte, 76)
	if _, err := LoadVerifier(bytes.NewReader(bad), nil); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestStoredChainStillVerifies: testdata/checkpoint_v6.bin holds two
// aggregation rounds sealed by an earlier commit, each as one format-v6
// segment (seed 23, two rounds of 4×6 records at Checks 6). Its layout
// is that of the prover checkpoint the repo once had: a 12-byte header
// (magic "zkcp", the round count, a CLog entry count, here 0), then per
// round an epoch (u64), a receipt size (u64) and the receipt. Both
// receipts must still decode and verify in order against a fresh
// verifier over the same traffic, so receipts already served stay
// readable by core.Verifier. -update rewrites the file from
// writeStoredChain's seeded run; do that only for a format change.
func TestStoredChainStillVerifies(t *testing.T) {
	path := filepath.Join("testdata", "checkpoint_v6.bin")
	if *updateStored {
		writeStoredChain(t, path)
	}
	stored, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, v := pipeline(t, 23, 3, 6)
	off := 12
	for round := uint64(0); round < 2; round++ {
		epoch := binary.LittleEndian.Uint64(stored[off:])
		size := int(binary.LittleEndian.Uint64(stored[off+8:]))
		off += 16
		receipt, err := zkvm.UnmarshalReceipt(stored[off : off+size])
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		off += size
		if epoch != round {
			t.Fatalf("round %d stored for epoch %d", round, epoch)
		}
		// Only the aggregation guest's own image verifies: the same
		// receipt under any other image ID is refused before its seal is
		// looked at.
		seg := *receipt.Segments[0]
		seg.ImageID[0] ^= 1
		forged := zkvm.Receipt{Segments: []*zkvm.SegmentReceipt{&seg}}
		if _, err := v.VerifyAggregation(&forged); !errors.Is(err, ErrWrongProgram) {
			t.Fatalf("receipt bound to an unknown image: %v, want ErrWrongProgram", err)
		}
		if _, err := v.VerifyAggregation(receipt); err != nil {
			t.Fatalf("epoch %d: stored round does not verify: %v", epoch, err)
		}
	}
	if v.Rounds() != 2 {
		t.Fatalf("verifier accepted %d rounds, want 2", v.Rounds())
	}
}

// writeStoredChain proves the stored chain's two rounds under fixed salt
// seeds, one per epoch, so the file is a function of the code, and
// writes it to path.
func writeStoredChain(t *testing.T, path string) {
	t.Helper()
	seeded := func(prog *zkvm.Program, input []uint32, po zkvm.ProveOptions) (zkvm.AnyReceipt, error) {
		r, err := zkvm.ProveSeeded(prog, input, po, [32]byte{'c', 'k', 'p', byte(input[epochWord])})
		if err != nil {
			return nil, err
		}
		return r, nil
	}
	p, _ := pipelineWithOpts(t, 23, 3, 6, Options{Checks: 6, Prove: seeded})
	res, err := p.AggregateEpochs([]uint64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	out := binary.LittleEndian.AppendUint32(nil, 0x7a6b6370) // "zkcp"
	out = binary.LittleEndian.AppendUint32(out, uint32(len(res)))
	out = binary.LittleEndian.AppendUint32(out, 0)
	for _, r := range res {
		bin, err := r.Receipt.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out = binary.LittleEndian.AppendUint64(out, r.Epoch)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(bin)))
		out = append(out, bin...)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d bytes to %s", len(out), path)
}
