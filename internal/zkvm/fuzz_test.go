package zkvm

import (
	"math/rand"
	"testing"
)

// TestReceiptBitFlipsAlwaysRejected is the wire-level adversary: any
// single bit flip in a serialized receipt must either fail to decode
// or fail to verify — and must never panic.
func TestReceiptBitFlipsAlwaysRejected(t *testing.T) {
	prog, r := proveSum(t, 8)
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), data...)
		pos := rng.Intn(len(mut))
		mut[pos] ^= byte(1 << rng.Intn(8))
		dec, err := UnmarshalReceipt(mut)
		if err != nil {
			continue // failed to decode: rejected
		}
		if err := Verify(prog, dec, VerifyOptions{}); err == nil {
			t.Fatalf("bit flip at byte %d accepted", pos)
		}
	}
}

// TestReceiptTruncationNeverPanics drives the decoder across every
// prefix length.
func TestReceiptTruncationNeverPanics(t *testing.T) {
	_, r := proveSum(t, 4)
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	step := len(data)/200 + 1
	for cut := 0; cut < len(data); cut += step {
		if _, err := UnmarshalReceipt(data[:cut]); err == nil {
			t.Fatalf("truncation to %d accepted", cut)
		}
	}
}

// randProgram generates a random terminating program: straight-line
// ALU and memory operations over a bounded address window, ending in
// a journal dump and a clean halt.
func randProgram(rng *rand.Rand, steps int) *Program {
	a := NewAssembler()
	// Seed some registers.
	for reg := R2; reg <= R9; reg++ {
		a.Li(reg, rng.Uint32())
	}
	ops := []func(rd, rs1, rs2 int){
		a.Add, a.Sub, a.Mul, a.And, a.Or, a.Xor, a.Sltu,
	}
	for i := 0; i < steps; i++ {
		rd := R2 + rng.Intn(8)
		rs1 := R2 + rng.Intn(8)
		rs2 := R2 + rng.Intn(8)
		switch rng.Intn(10) {
		case 0: // store
			a.Andi(R10, rs1, 63) // bounded address window
			a.Sw(rs2, R10, 1000)
		case 1: // load
			a.Andi(R10, rs1, 63)
			a.Lw(rd, R10, 1000)
		case 2:
			a.Addi(rd, rs1, rng.Uint32())
		default:
			ops[rng.Intn(len(ops))](rd, rs1, rs2)
		}
	}
	for reg := R2; reg <= R9; reg++ {
		a.WriteJournal(reg)
	}
	a.HaltCode(0)
	return a.MustAssemble()
}

// TestRandomProgramsProveAndVerify is the ISA-level property test:
// every random program's receipt must verify, and the journal must
// match a plain re-execution.
func TestRandomProgramsProveAndVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		prog := randProgram(rng, 40+rng.Intn(100))
		ex, err := Execute(prog, nil, ExecOptions{})
		if err != nil {
			t.Fatalf("trial %d: execute: %v", trial, err)
		}
		r, err := proveExecutionSeeded(ex, ProveOptions{Checks: 6}, &[32]byte{})
		if err != nil {
			t.Fatalf("trial %d: prove: %v", trial, err)
		}
		if err := Verify(prog, r, VerifyOptions{}); err != nil {
			t.Fatalf("trial %d: verify: %v", trial, err)
		}
		if len(r.JournalWords()) != 8 {
			t.Fatalf("trial %d: journal %d words", trial, len(r.JournalWords()))
		}
		for i := range r.JournalWords() {
			if r.JournalWords()[i] != ex.Journal[i] {
				t.Fatalf("trial %d: journal diverged", trial)
			}
		}
	}
}

// TestRandomTraceTamperRejected flips one field of one random trace
// row or memory entry and re-seals with enough checks that sampling
// catches it. The row is one that heads a leaf: the rest of a leaf's
// rows are not committed but derived, so a flipped register in one of
// them is a lie the format cannot tell (TestTamperedWitnessCaught).
func TestRandomTraceTamperRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	prog := sumProgram()
	for trial := 0; trial < 8; trial++ {
		ex, err := Execute(prog, sumInput(8), ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			i := leafRecords * (1 + rng.Intn((len(ex.Rows)-2)/leafRecords))
			ex.Rows[i].Regs[1+rng.Intn(NumRegs-1)] ^= 1 << rng.Intn(32)
		} else {
			i := rng.Intn(len(ex.MemLog))
			ex.MemLog[i].Val ^= 1 << rng.Intn(32)
		}
		r, err := proveExecutionSeeded(ex, ProveOptions{Checks: 3000}, &[32]byte{})
		if err != nil {
			continue // some tampering already breaks sealing; fine
		}
		if err := Verify(prog, r, VerifyOptions{}); err == nil {
			t.Fatalf("trial %d: tampered trace accepted", trial)
		}
	}
}
