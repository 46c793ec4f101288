// Package zkvm implements a general-purpose zero-knowledge-oriented
// virtual machine in the architectural mold of RISC Zero: a host
// prepares private inputs, a guest program executes deterministically
// inside the VM, the only public output is an append-only journal, and
// the prover emits a receipt — journal plus a cryptographic seal —
// that a verifier can check without re-running the guest or seeing its
// inputs.
//
// The machine ("TinyRISC") has sixteen 32-bit registers (r0 wired to
// zero), word-addressed zero-initialised memory, absolute branches,
// and an ECALL interface for host services: private-input reads,
// journal writes, and a SHA-256 precompile mirroring RISC Zero's
// hashing accelerator (the telemetry guests spend most of their cycles
// there, exactly as the paper reports for its Merkle work).
//
// The seal is a transparent committed-trace argument: the execution
// trace, the memory-access log in program order, the memory image it
// leaves, and Fiat–Shamir product columns for the offline
// memory-consistency check are committed in salted Merkle trees, and
// the verifier re-executes k Fiat–Shamir-sampled transitions plus
// boundary rows. See DESIGN.md §1 for the soundness/zero-knowledge
// trade-offs versus a FRI-compiled STARK.
package zkvm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Op is a TinyRISC opcode.
type Op uint8

// Instruction set: the 24 opcodes the guests emit. Arithmetic is 32-bit
// wrapping; comparisons are unsigned; branch and jump targets are
// absolute instruction indices. Retired numbers stay reserved as blank
// slots, so no live opcode is renumbered and no image ID moves; the
// decoder rejects them as it rejects OpInvalid.
const (
	OpInvalid Op = iota

	// Register-register ALU: rd = rs1 <op> rs2.
	OpAdd
	OpSub
	OpMul
	_ // 4 and 5 are retired (divu, remu)
	_
	OpAnd
	OpOr
	OpXor
	_ // 9 and 10 are retired (sll, srl)
	_
	OpSltu // rd = 1 if rs1 < rs2 (unsigned) else 0

	// Register-immediate ALU: rd = rs1 <op> imm.
	OpAddi
	OpAndi
	_ // 14 is retired (ori)
	OpXori
	OpSlli // shift amount is imm mod 32
	OpSrli
	OpSltiu

	// OpLi loads the full 32-bit immediate: rd = imm.
	OpLi

	// Memory: word-addressed. OpLw: rd = mem[rs1+imm].
	// OpSw: mem[rs1+imm] = rs2.
	OpLw
	OpSw

	// Branches compare rs1 and rs2 and jump to the absolute
	// instruction index imm when taken.
	OpBeq
	OpBne
	OpBltu
	OpBgeu

	// OpJal: rd = pc+1; pc = imm.
	OpJal
	// OpJalr: rd = pc+1; pc = rs1 + imm.
	OpJalr

	// OpEcall invokes the host service selected by imm (see Sys*).
	OpEcall

	// OpHalt stops the machine; the exit code is r1.
	OpHalt

	opMax // sentinel
)

// ECALL service codes (in Instr.Imm).
const (
	// SysRead pops the next private-input word into r1. Reading past
	// the end of the input tape traps.
	SysRead uint32 = 1
	// SysJournal appends r1 to the public journal.
	SysJournal uint32 = 2
	// SysHash computes SHA-256 over the r2 words at mem[r1..r1+r2)
	// (little-endian packing) and stores the 8 digest words at
	// mem[r3..r3+8). Mirrors RISC Zero's SHA precompile.
	SysHash uint32 = 3
	// Service 4 is retired; like any other unknown code, it traps.
)

// opNames names every live opcode; a number it leaves unnamed is not
// an instruction, and DecodeInstr rejects it.
var opNames = [opMax]string{
	OpInvalid: "invalid",
	OpAdd:     "add", OpSub: "sub", OpMul: "mul",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpSltu: "sltu",
	OpAddi: "addi", OpAndi: "andi", OpXori: "xori",
	OpSlli: "slli", OpSrli: "srli", OpSltiu: "sltiu",
	OpLi: "li", OpLw: "lw", OpSw: "sw",
	OpBeq: "beq", OpBne: "bne", OpBltu: "bltu", OpBgeu: "bgeu",
	OpJal: "jal", OpJalr: "jalr", OpEcall: "ecall", OpHalt: "halt",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// NumRegs is the register file size; register 0 is hardwired to zero.
const NumRegs = 16

// Instr is a single decoded TinyRISC instruction.
type Instr struct {
	Op           Op
	Rd, Rs1, Rs2 uint8
	Imm          uint32
}

// String renders the instruction in assembly-like form.
func (in Instr) String() string {
	return fmt.Sprintf("%s rd=r%d rs1=r%d rs2=r%d imm=%d", in.Op, in.Rd, in.Rs1, in.Rs2, in.Imm)
}

// instrSize is the encoded instruction width in bytes.
const instrSize = 8

// Encode serialises the instruction into 8 bytes.
func (in Instr) Encode() [instrSize]byte {
	var b [instrSize]byte
	b[0] = uint8(in.Op)
	b[1] = in.Rd
	b[2] = in.Rs1
	b[3] = in.Rs2
	binary.LittleEndian.PutUint32(b[4:], in.Imm)
	return b
}

// DecodeInstr parses an 8-byte encoded instruction.
func DecodeInstr(b [instrSize]byte) (Instr, error) {
	in := Instr{
		Op:  Op(b[0]),
		Rd:  b[1],
		Rs1: b[2],
		Rs2: b[3],
		Imm: binary.LittleEndian.Uint32(b[4:]),
	}
	if in.Op == OpInvalid || in.Op >= opMax || opNames[in.Op] == "" {
		return Instr{}, fmt.Errorf("zkvm: invalid opcode %d", b[0])
	}
	if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
		return Instr{}, fmt.Errorf("zkvm: register out of range in %v", in)
	}
	return in, nil
}

// Program is a TinyRISC program: a flat instruction sequence starting
// execution at index 0. Programs are immutable once built (the
// assembler and decoder both return finished programs); Instrs must
// not be mutated after the first ID() call.
type Program struct {
	Instrs []Instr

	// id memoizes the image commitment. The aggregator proves and
	// verifies the same guest every epoch, and each Prove/Verify pair
	// recomputed SHA-256 over the full encoding; the atomic makes the
	// cache safe under concurrent sealing slots. Benign race: two
	// first callers both compute the same digest and one store wins.
	id atomic.Pointer[ImageID]

	// traceHint memoizes the largest trace this program has produced,
	// whole run or one segment of a cut run, so the machine can presize
	// the slabs instead of paying capacity-doubling regrowth — the
	// dominant term in the cold-start proving cliff (E15 in
	// EXPERIMENTS.md).
	traceHint traceHint
}

// Encode serialises the program (8 bytes per instruction).
func (p *Program) Encode() []byte {
	out := make([]byte, 0, len(p.Instrs)*instrSize)
	for _, in := range p.Instrs {
		b := in.Encode()
		out = append(out, b[:]...)
	}
	return out
}

// DecodeProgram parses an encoded program.
func DecodeProgram(data []byte) (*Program, error) {
	if len(data)%instrSize != 0 {
		return nil, fmt.Errorf("zkvm: program length %d not a multiple of %d", len(data), instrSize)
	}
	p := &Program{Instrs: make([]Instr, 0, len(data)/instrSize)}
	for off := 0; off < len(data); off += instrSize {
		var b [instrSize]byte
		copy(b[:], data[off:])
		in, err := DecodeInstr(b)
		if err != nil {
			return nil, fmt.Errorf("zkvm: at offset %d: %w", off, err)
		}
		p.Instrs = append(p.Instrs, in)
	}
	return p, nil
}

// ImageID is the cryptographic identity of a guest program — the
// SHA-256 of its encoding. Receipts bind to an ImageID so a verifier
// knows exactly which computation was proven (RISC Zero's image ID).
type ImageID [32]byte

// String renders the leading bytes in hex.
func (id ImageID) String() string { return fmt.Sprintf("%x", id[:8]) }

// ID returns the program's image ID, computing it on first call and
// serving every later call from the cache (epochs re-prove the same
// guest, and both the prover and verifier bind to the ID).
func (p *Program) ID() ImageID {
	if cached := p.id.Load(); cached != nil {
		return *cached
	}
	id := ImageID(sha256.Sum256(p.Encode()))
	p.id.Store(&id)
	return id
}
