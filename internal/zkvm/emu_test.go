package zkvm

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"
)

// run assembles and executes a program built by fn.
func run(t *testing.T, input []uint32, fn func(a *Assembler)) *Execution {
	t.Helper()
	a := NewAssembler()
	fn(a)
	prog, err := a.Assemble()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	ex, err := Execute(prog, input, ExecOptions{})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return ex
}

func TestALUOps(t *testing.T) {
	cases := []struct {
		name string
		emit func(a *Assembler) // leaves result in r4 (inputs in r2=7, r3=3)
		want uint32
	}{
		{"add", func(a *Assembler) { a.Add(R4, R2, R3) }, 10},
		{"sub", func(a *Assembler) { a.Sub(R4, R2, R3) }, 4},
		{"sub-wrap", func(a *Assembler) { a.Sub(R4, R3, R2) }, 0xfffffffc},
		{"mul", func(a *Assembler) { a.Mul(R4, R2, R3) }, 21},
		{"and", func(a *Assembler) { a.And(R4, R2, R3) }, 3},
		{"or", func(a *Assembler) { a.Or(R4, R2, R3) }, 7},
		{"xor", func(a *Assembler) { a.Xor(R4, R2, R3) }, 4},
		{"sltu-true", func(a *Assembler) { a.Sltu(R4, R3, R2) }, 1},
		{"sltu-false", func(a *Assembler) { a.Sltu(R4, R2, R3) }, 0},
		{"addi", func(a *Assembler) { a.Addi(R4, R2, 100) }, 107},
		{"andi", func(a *Assembler) { a.Andi(R4, R2, 5) }, 5},
		{"xori", func(a *Assembler) { a.Xori(R4, R2, 1) }, 6},
		{"slli", func(a *Assembler) { a.Slli(R4, R2, 2) }, 28},
		{"srli", func(a *Assembler) { a.Srli(R4, R2, 1) }, 3},
		{"sltiu", func(a *Assembler) { a.Sltiu(R4, R2, 8) }, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex := run(t, nil, func(a *Assembler) {
				a.Li(R2, 7)
				a.Li(R3, 3)
				tc.emit(a)
				a.WriteJournal(R4)
				a.HaltCode(0)
			})
			if len(ex.Journal) != 1 || ex.Journal[0] != tc.want {
				t.Fatalf("journal = %v, want [%d]", ex.Journal, tc.want)
			}
		})
	}
}

func TestR0Hardwired(t *testing.T) {
	ex := run(t, nil, func(a *Assembler) {
		a.Li(R0, 99) // write to r0 must be discarded
		a.WriteJournal(R0)
		a.HaltCode(0)
	})
	if ex.Journal[0] != 0 {
		t.Fatalf("r0 = %d, want 0", ex.Journal[0])
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	ex := run(t, nil, func(a *Assembler) {
		a.Li(R2, 1234)
		a.Li(R3, 500) // address
		a.Sw(R2, R3, 0)
		a.Lw(R4, R3, 0)
		a.WriteJournal(R4)
		a.HaltCode(0)
	})
	if ex.Journal[0] != 1234 {
		t.Fatalf("loaded %d", ex.Journal[0])
	}
	if len(ex.MemLog) != 2 {
		t.Fatalf("memlog has %d entries, want 2", len(ex.MemLog))
	}
	if !ex.MemLog[0].IsWrite || ex.MemLog[1].IsWrite {
		t.Fatal("memlog write/read flags wrong")
	}
}

func TestUninitialisedMemoryIsZero(t *testing.T) {
	ex := run(t, nil, func(a *Assembler) {
		a.Li(R3, 777)
		a.Lw(R4, R3, 0)
		a.WriteJournal(R4)
		a.HaltCode(0)
	})
	if ex.Journal[0] != 0 {
		t.Fatalf("fresh memory = %d", ex.Journal[0])
	}
}

func TestBranchLoop(t *testing.T) {
	// sum 1..10 = 55
	ex := run(t, nil, func(a *Assembler) {
		a.Li(R2, 0)  // acc
		a.Li(R3, 1)  // i
		a.Li(R4, 11) // bound
		a.Label("loop")
		a.Add(R2, R2, R3)
		a.Addi(R3, R3, 1)
		a.Bltu(R3, R4, "loop")
		a.WriteJournal(R2)
		a.HaltCode(0)
	})
	if ex.Journal[0] != 55 {
		t.Fatalf("sum = %d", ex.Journal[0])
	}
}

func TestCallRet(t *testing.T) {
	ex := run(t, nil, func(a *Assembler) {
		a.Li(R2, 20)
		a.Call("double")
		a.WriteJournal(R2)
		a.HaltCode(0)
		a.Label("double")
		a.Add(R2, R2, R2)
		a.Ret()
	})
	if ex.Journal[0] != 40 {
		t.Fatalf("double = %d", ex.Journal[0])
	}
}

func TestInputTape(t *testing.T) {
	ex := run(t, []uint32{5, 9}, func(a *Assembler) {
		a.ReadInput(R2)
		a.ReadInput(R3)
		a.Add(R4, R2, R3)
		a.WriteJournal(R4)
		a.HaltCode(0)
	})
	if ex.Journal[0] != 14 {
		t.Fatalf("sum = %d", ex.Journal[0])
	}
}

func TestInputExhaustionTraps(t *testing.T) {
	a := NewAssembler()
	a.ReadInput(R2)
	a.HaltCode(0)
	prog := a.MustAssemble()
	_, err := Execute(prog, nil, ExecOptions{})
	var trap *TrapError
	if !errors.As(err, &trap) {
		t.Fatalf("want TrapError, got %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	a := NewAssembler()
	a.Label("spin")
	a.J("spin")
	prog := a.MustAssemble()
	_, err := Execute(prog, nil, ExecOptions{MaxSteps: 100})
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("want ErrStepLimit, got %v", err)
	}
}

func TestPCOutOfRangeTraps(t *testing.T) {
	a := NewAssembler()
	a.Li(R2, 0) // falls off the end: pc = 1 is outside
	prog := a.MustAssemble()
	_, err := Execute(prog, nil, ExecOptions{})
	var trap *TrapError
	if !errors.As(err, &trap) {
		t.Fatalf("want TrapError, got %v", err)
	}
}

func TestUnknownEcallTraps(t *testing.T) {
	for _, code := range []uint32{4, 999} { // 4 is retired
		a := NewAssembler()
		a.Ecall(code)
		a.HaltCode(0)
		prog := a.MustAssemble()
		if _, err := Execute(prog, nil, ExecOptions{}); err == nil {
			t.Fatalf("unknown ecall %d executed", code)
		}
	}
}

func TestHashPrecompile(t *testing.T) {
	// Hash two words and journal the first digest word; compare with a
	// host-side SHA-256.
	words := []uint32{0xdeadbeef, 0x12345678}
	ex := run(t, nil, func(a *Assembler) {
		a.Li(R4, 100) // src
		a.Li(R5, 0xdeadbeef)
		a.Sw(R5, R4, 0)
		a.Li(R5, 0x12345678)
		a.Sw(R5, R4, 1)
		a.Li(R5, 2)   // len
		a.Li(R6, 200) // dst
		a.Mov(R1, R4)
		a.Mov(R2, R5)
		a.Mov(R3, R6)
		a.Ecall(SysHash)
		a.Lw(R7, R6, 0)
		a.WriteJournal(R7)
		a.HaltCode(0)
	})
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint32(buf[0:], words[0])
	binary.LittleEndian.PutUint32(buf[4:], words[1])
	digest := sha256.Sum256(buf)
	want := binary.LittleEndian.Uint32(digest[:4])
	if ex.Journal[0] != want {
		t.Fatalf("digest word = %#x, want %#x", ex.Journal[0], want)
	}
	// 2 stores + 2 hash reads + 8 hash writes + 1 load = 13 entries
	if len(ex.MemLog) != 13 {
		t.Fatalf("memlog %d entries, want 13", len(ex.MemLog))
	}
}

func TestExitCode(t *testing.T) {
	ex := run(t, nil, func(a *Assembler) { a.HaltCode(7) })
	if ex.ExitCode != 7 {
		t.Fatalf("exit = %d", ex.ExitCode)
	}
}

func TestRowsRecordPreState(t *testing.T) {
	ex := run(t, nil, func(a *Assembler) {
		a.Li(R2, 5)
		a.HaltCode(0)
	})
	if ex.Rows[0].Regs[R2] != 0 {
		t.Fatal("row 0 should hold pre-execution registers")
	}
	if ex.Rows[1].Regs[R2] != 5 {
		t.Fatal("row 1 should see the li result")
	}
	if ex.Rows[0].PC != 0 {
		t.Fatal("row 0 pc != 0")
	}
}

func TestMemPtrContinuity(t *testing.T) {
	ex := run(t, []uint32{3}, func(a *Assembler) {
		a.ReadInput(R2)
		a.Li(R3, 10)
		a.Sw(R2, R3, 0)
		a.Lw(R4, R3, 0)
		a.WriteJournal(R4)
		a.HaltCode(0)
	})
	for i := 0; i+1 < len(ex.Rows); i++ {
		r, n := ex.Rows[i], ex.Rows[i+1]
		if n.MemPtr < r.MemPtr || n.InPtr < r.InPtr || n.JPtr < r.JPtr {
			t.Fatalf("cursor went backwards at row %d", i)
		}
	}
	last := ex.Rows[len(ex.Rows)-1]
	if int(last.MemPtr) != len(ex.MemLog) {
		t.Fatalf("final MemPtr %d != memlog len %d", last.MemPtr, len(ex.MemLog))
	}
	if int(last.JPtr) != len(ex.Journal) {
		t.Fatalf("final JPtr %d != journal len %d", last.JPtr, len(ex.Journal))
	}
}

func TestAssemblerErrors(t *testing.T) {
	a := NewAssembler()
	a.J("nowhere")
	if _, err := a.Assemble(); err == nil {
		t.Fatal("undefined label accepted")
	}

	b := NewAssembler()
	b.Label("x")
	b.Label("x")
	b.Halt()
	if _, err := b.Assemble(); err == nil {
		t.Fatal("duplicate label accepted")
	}

	c := NewAssembler()
	c.Add(17, 0, 0)
	c.Halt()
	if _, err := c.Assemble(); err == nil {
		t.Fatal("bad register accepted")
	}
}

func TestProgramEncodeDecodeRoundTrip(t *testing.T) {
	a := NewAssembler()
	a.Li(R2, 0xdeadbeef)
	a.Add(R3, R2, R2)
	a.Label("end")
	a.Beq(R3, R3, "end") // well-formed self-loop target
	a.Halt()
	prog := a.MustAssemble()
	enc := prog.Encode()
	dec, err := DecodeProgram(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Instrs) != len(prog.Instrs) {
		t.Fatal("length mismatch")
	}
	for i := range dec.Instrs {
		if dec.Instrs[i] != prog.Instrs[i] {
			t.Fatalf("instr %d mismatch", i)
		}
	}
	if dec.ID() != prog.ID() {
		t.Fatal("image ID changed across round trip")
	}
}

func TestDecodeProgramRejectsGarbage(t *testing.T) {
	if _, err := DecodeProgram([]byte{1, 2, 3}); err == nil {
		t.Fatal("ragged program accepted")
	}
	// Opcode 0 is OpInvalid; 4, 5, 9, 10 and 14 are retired; opMax is
	// past the last.
	for _, op := range []Op{OpInvalid, 4, 5, 9, 10, 14, opMax} {
		bad := Instr{Op: op}.Encode()
		if _, err := DecodeProgram(bad[:]); err == nil {
			t.Fatalf("opcode %d accepted", op)
		}
	}
}

func TestImageIDBindsProgram(t *testing.T) {
	a := NewAssembler()
	a.Li(R2, 1)
	a.Halt()
	b := NewAssembler()
	b.Li(R2, 2)
	b.Halt()
	if a.MustAssemble().ID() == b.MustAssemble().ID() {
		t.Fatal("different programs share an image ID")
	}
}

func TestListingContainsLabels(t *testing.T) {
	a := NewAssembler()
	a.Label("start")
	a.Comment("the answer")
	a.Li(R2, 42)
	a.Halt()
	l := a.Listing()
	if len(l) == 0 {
		t.Fatal("empty listing")
	}
	for _, want := range []string{"start:", "the answer", "li"} {
		if !contains(l, want) {
			t.Fatalf("listing missing %q:\n%s", want, l)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
