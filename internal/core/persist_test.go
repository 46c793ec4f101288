package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"zkflow/internal/zkvm"
)

func TestProverCheckpointResumesChain(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"single", testOpts},
		// A segmented prover's history holds many-segment receipts, which
		// the checkpoint must read back as such.
		{"segmented", Options{Checks: testOpts.Checks, SegmentCycles: 1 << 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, _, v := pipeline(t, 20, 3, 8)
			p := NewProver(sim.Store, sim.Ledger, tc.opts)
			// Two rounds, checkpoint, restore, third round: the chain must
			// continue seamlessly for the verifier.
			for epoch := uint64(0); epoch < 2; epoch++ {
				res, err := p.AggregateEpoch(epoch)
				if err != nil {
					t.Fatal(err)
				}
				if n := res.Receipt.(*zkvm.Receipt).NumSegments(); (n > 1) != (tc.opts.SegmentCycles > 0) {
					t.Fatalf("epoch %d sealed %d segments", epoch, n)
				}
				if _, err := v.VerifyAggregation(res.Receipt); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := p.SaveCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := LoadProver(&buf, sim.Store, sim.Ledger, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Round() != 2 || restored.CLogLen() != p.CLogLen() {
				t.Fatalf("restored rounds=%d flows=%d", restored.Round(), restored.CLogLen())
			}
			res, err := restored.AggregateEpoch(2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := v.VerifyAggregation(res.Receipt); err != nil {
				t.Fatalf("chain broken after restore: %v", err)
			}
		})
	}
}

func TestProverCheckpointRejectsCorruption(t *testing.T) {
	sim, p, _ := pipeline(t, 21, 1, 6)
	if _, err := p.AggregateEpoch(0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte inside the serialized CLog entries (the tail).
	data[len(data)-5] ^= 0xff
	if _, err := LoadProver(bytes.NewReader(data), sim.Store, sim.Ledger, testOpts); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("corrupted checkpoint accepted: %v", err)
	}
}

func TestProverCheckpointRejectsTruncation(t *testing.T) {
	sim, p, _ := pipeline(t, 22, 1, 6)
	if _, err := p.AggregateEpoch(0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 5, 20, len(data) - 3} {
		if _, err := LoadProver(bytes.NewReader(data[:cut]), sim.Store, sim.Ledger, testOpts); err == nil {
			t.Fatalf("truncation to %d accepted", cut)
		}
	}
}

func TestGenesisCheckpoint(t *testing.T) {
	sim, p, _ := pipeline(t, 23, 1, 4)
	var buf bytes.Buffer
	if err := p.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadProver(&buf, sim.Store, sim.Ledger, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Round() != 0 || restored.CLogLen() != 0 {
		t.Fatal("genesis state not empty")
	}
	// The restored genesis prover can run round 0.
	if _, err := restored.AggregateEpoch(0); err != nil {
		t.Fatal(err)
	}
}

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

// TestCheckpointStillLoads: testdata/checkpoint_v3.bin was written by
// a prover sealing each round as one format-v3 segment (seed 23, two
// rounds of 4×6 records at Checks 6 and SegmentCycles DefaultMaxSteps)
// and is regenerated only when the receipt encoding changes: it is the
// stored bytes that pin LoadProver. It must still load, its receipt history
// must still verify, the restored prover must extend the chain, and
// saving again must carry the stored rounds byte for byte.
func TestCheckpointStillLoads(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v3.bin"))
	if err != nil {
		t.Fatal(err)
	}
	sim, _, v := pipeline(t, 23, 3, 6)
	restored, err := LoadProver(bytes.NewReader(old), sim.Store, sim.Ledger, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Round() != 2 {
		t.Fatalf("restored %d rounds, want 2", restored.Round())
	}
	for _, res := range restored.history {
		if _, err := v.VerifyAggregation(res.Receipt); err != nil {
			t.Fatalf("epoch %d: stored history does not verify: %v", res.Epoch, err)
		}
	}
	res, err := restored.AggregateEpoch(2)
	if err != nil {
		t.Fatal(err)
	}
	// Only the aggregation guest's own image verifies: the same receipt
	// under any other image ID is refused before its seal is looked at.
	seg := *res.Receipt.(*zkvm.Receipt).Segments[0]
	seg.ImageID[0] ^= 1
	forged := zkvm.Receipt{Segments: []*zkvm.SegmentReceipt{&seg}}
	if _, err := v.VerifyAggregation(&forged); !errors.Is(err, ErrWrongProgram) {
		t.Fatalf("receipt bound to an unknown image: %v, want ErrWrongProgram", err)
	}
	if _, err := v.VerifyAggregation(res.Receipt); err != nil {
		t.Fatalf("chain broken after restoring a stored checkpoint: %v", err)
	}
	var buf bytes.Buffer
	if err := restored.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	stored := 12 // header, then each stored round's epoch, size and receipt
	for range 2 {
		stored += 16 + int(binary.LittleEndian.Uint64(old[stored+8:]))
	}
	if !bytes.Equal(buf.Bytes()[12:stored], old[12:stored]) {
		t.Fatal("re-saved checkpoint does not carry the stored receipts byte for byte")
	}
}
