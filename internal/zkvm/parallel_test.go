package zkvm

import (
	"bytes"
	"runtime"
	"testing"
)

// parallelTestExecution builds a guest with a non-trivial trace —
// memory stores/loads, arithmetic, the SHA-256 precompile — so every
// committed table (exec rows, both memory orderings including the
// precompile's rows, running products) is populated.
func parallelTestExecution(t testing.TB, words int) *Execution {
	t.Helper()
	a := NewAssembler()
	a.Li(1, 0) // acc
	a.Li(4, 0) // addr cursor
	for i := 0; i < words; i++ {
		a.ReadInput(2)
		a.Sw(2, 4, 0)
		a.Lw(3, 4, 0)
		a.Add(1, 1, 3)
		a.Addi(4, 4, 1)
	}
	// Hash the first 16 stored words via the precompile into high
	// memory, then journal the first digest word and the sum.
	a.Li(5, 0)    // src addr
	a.Li(6, 16)   // len
	a.Li(7, 4096) // dst addr
	a.Mov(1, 5)
	a.Mov(2, 6)
	a.Mov(3, 7)
	a.Ecall(SysHash)
	a.Lw(8, 7, 0)
	a.WriteJournal(8)
	a.WriteJournal(1)
	a.HaltCode(0)
	prog, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	input := make([]uint32, words)
	for i := range input {
		input[i] = uint32(i)*2654435761 + 12345
	}
	ex, err := Execute(prog, input, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestParallelProveDeterminism asserts the tentpole guarantee: for a
// fixed salt seed, the parallel prover emits receipts byte-for-byte
// identical to the fully serial prover (GOMAXPROCS 1) at every width.
func TestParallelProveDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ex := parallelTestExecution(t, 96)
	seed := [32]byte{7: 1, 13: 0xee, 31: 9}

	serial, err := proveExecutionSeeded(ex, ProveOptions{Checks: 12}, &seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 3, 4, 7, 32} {
		runtime.GOMAXPROCS(par)
		r, err := proveExecutionSeeded(ex, ProveOptions{Checks: 12}, &seed)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		got, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("parallelism %d: receipt differs from serial (%d vs %d bytes)", par, len(got), len(want))
		}
	}
	// The parallel receipt must still verify.
	if err := Verify(ex.Program, serial, VerifyOptions{}); err != nil {
		t.Fatalf("serial-seeded receipt does not verify: %v", err)
	}
}

// TestParallelProveVerifies proves at the width GOMAXPROCS sets and
// checks the receipt.
func TestParallelProveVerifies(t *testing.T) {
	ex := parallelTestExecution(t, 64)
	r, err := proveExecutionSeeded(ex, ProveOptions{Checks: 8}, &[32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(ex.Program, r, VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
}
