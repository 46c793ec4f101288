package zkvm

import (
	"fmt"
	"sort"
)

// Register aliases for assembler callers. R0 is hardwired to zero.
// By convention in this repository's guests: r1-r3 are ECALL argument/
// return registers, r4-r13 are general purpose, r14 is a frame/scratch
// pointer, r15 is the link register.
const (
	R0 = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
)

// LinkReg is the conventional link register used by Call/Ret.
const LinkReg = R15

// Assembler builds TinyRISC programs with symbolic labels. Methods
// append instructions; Assemble resolves label references and returns
// the finished program. The zero value is not usable; call NewAssembler.
type Assembler struct {
	instrs  []Instr
	labels  map[string]int // label -> instruction index
	fixups  map[int]string // instruction index -> unresolved label
	comment map[int]string // instruction index -> comment (listings)
	errs    []error
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{
		labels:  make(map[string]int),
		fixups:  make(map[int]string),
		comment: make(map[int]string),
	}
}

// Label defines a label at the current position. Redefinition is an
// assembly error.
func (a *Assembler) Label(name string) {
	if _, dup := a.labels[name]; dup {
		a.errs = append(a.errs, fmt.Errorf("asm: duplicate label %q", name))
		return
	}
	a.labels[name] = len(a.instrs)
}

// Comment attaches a comment to the next emitted instruction (shown by
// Listing; has no runtime effect).
func (a *Assembler) Comment(text string) {
	a.comment[len(a.instrs)] = text
}

// PC returns the index the next instruction will occupy.
func (a *Assembler) PC() int { return len(a.instrs) }

func (a *Assembler) checkReg(r int) uint8 {
	if r < 0 || r >= NumRegs {
		a.errs = append(a.errs, fmt.Errorf("asm: register r%d out of range at instr %d", r, len(a.instrs)))
		return 0
	}
	return uint8(r)
}

func (a *Assembler) emit(in Instr) {
	a.instrs = append(a.instrs, in)
}

func (a *Assembler) emitBranch(op Op, rs1, rs2 int, label string) {
	a.fixups[len(a.instrs)] = label
	a.emit(Instr{Op: op, Rs1: a.checkReg(rs1), Rs2: a.checkReg(rs2)})
}

// --- Register-register ALU ---

// Add emits rd = rs1 + rs2.
func (a *Assembler) Add(rd, rs1, rs2 int) {
	a.emit(Instr{Op: OpAdd, Rd: a.checkReg(rd), Rs1: a.checkReg(rs1), Rs2: a.checkReg(rs2)})
}

// Sub emits rd = rs1 - rs2.
func (a *Assembler) Sub(rd, rs1, rs2 int) {
	a.emit(Instr{Op: OpSub, Rd: a.checkReg(rd), Rs1: a.checkReg(rs1), Rs2: a.checkReg(rs2)})
}

// Mul emits rd = rs1 * rs2 (low 32 bits).
func (a *Assembler) Mul(rd, rs1, rs2 int) {
	a.emit(Instr{Op: OpMul, Rd: a.checkReg(rd), Rs1: a.checkReg(rs1), Rs2: a.checkReg(rs2)})
}

// And emits rd = rs1 & rs2.
func (a *Assembler) And(rd, rs1, rs2 int) {
	a.emit(Instr{Op: OpAnd, Rd: a.checkReg(rd), Rs1: a.checkReg(rs1), Rs2: a.checkReg(rs2)})
}

// Or emits rd = rs1 | rs2.
func (a *Assembler) Or(rd, rs1, rs2 int) {
	a.emit(Instr{Op: OpOr, Rd: a.checkReg(rd), Rs1: a.checkReg(rs1), Rs2: a.checkReg(rs2)})
}

// Xor emits rd = rs1 ^ rs2.
func (a *Assembler) Xor(rd, rs1, rs2 int) {
	a.emit(Instr{Op: OpXor, Rd: a.checkReg(rd), Rs1: a.checkReg(rs1), Rs2: a.checkReg(rs2)})
}

// Sltu emits rd = (rs1 < rs2) ? 1 : 0 (unsigned).
func (a *Assembler) Sltu(rd, rs1, rs2 int) {
	a.emit(Instr{Op: OpSltu, Rd: a.checkReg(rd), Rs1: a.checkReg(rs1), Rs2: a.checkReg(rs2)})
}

// --- Register-immediate ALU ---

// Addi emits rd = rs1 + imm.
func (a *Assembler) Addi(rd, rs1 int, imm uint32) {
	a.emit(Instr{Op: OpAddi, Rd: a.checkReg(rd), Rs1: a.checkReg(rs1), Imm: imm})
}

// Andi emits rd = rs1 & imm.
func (a *Assembler) Andi(rd, rs1 int, imm uint32) {
	a.emit(Instr{Op: OpAndi, Rd: a.checkReg(rd), Rs1: a.checkReg(rs1), Imm: imm})
}

// Xori emits rd = rs1 ^ imm.
func (a *Assembler) Xori(rd, rs1 int, imm uint32) {
	a.emit(Instr{Op: OpXori, Rd: a.checkReg(rd), Rs1: a.checkReg(rs1), Imm: imm})
}

// Slli emits rd = rs1 << (imm mod 32).
func (a *Assembler) Slli(rd, rs1 int, imm uint32) {
	a.emit(Instr{Op: OpSlli, Rd: a.checkReg(rd), Rs1: a.checkReg(rs1), Imm: imm})
}

// Srli emits rd = rs1 >> (imm mod 32).
func (a *Assembler) Srli(rd, rs1 int, imm uint32) {
	a.emit(Instr{Op: OpSrli, Rd: a.checkReg(rd), Rs1: a.checkReg(rs1), Imm: imm})
}

// Sltiu emits rd = (rs1 < imm) ? 1 : 0 (unsigned).
func (a *Assembler) Sltiu(rd, rs1 int, imm uint32) {
	a.emit(Instr{Op: OpSltiu, Rd: a.checkReg(rd), Rs1: a.checkReg(rs1), Imm: imm})
}

// Li emits rd = imm (full 32 bits).
func (a *Assembler) Li(rd int, imm uint32) {
	a.emit(Instr{Op: OpLi, Rd: a.checkReg(rd), Imm: imm})
}

// --- Memory ---

// Lw emits rd = mem[rs1 + imm] (word-addressed).
func (a *Assembler) Lw(rd, rs1 int, imm uint32) {
	a.emit(Instr{Op: OpLw, Rd: a.checkReg(rd), Rs1: a.checkReg(rs1), Imm: imm})
}

// Sw emits mem[rs1 + imm] = rs2 (word-addressed).
func (a *Assembler) Sw(rs2, rs1 int, imm uint32) {
	a.emit(Instr{Op: OpSw, Rs1: a.checkReg(rs1), Rs2: a.checkReg(rs2), Imm: imm})
}

// --- Control flow ---

// Beq branches to label when rs1 == rs2.
func (a *Assembler) Beq(rs1, rs2 int, label string) { a.emitBranch(OpBeq, rs1, rs2, label) }

// Bne branches to label when rs1 != rs2.
func (a *Assembler) Bne(rs1, rs2 int, label string) { a.emitBranch(OpBne, rs1, rs2, label) }

// Bltu branches to label when rs1 < rs2 (unsigned).
func (a *Assembler) Bltu(rs1, rs2 int, label string) { a.emitBranch(OpBltu, rs1, rs2, label) }

// Bgeu branches to label when rs1 >= rs2 (unsigned).
func (a *Assembler) Bgeu(rs1, rs2 int, label string) { a.emitBranch(OpBgeu, rs1, rs2, label) }

// Jal emits rd = pc+1; pc = label.
func (a *Assembler) Jal(rd int, label string) {
	a.fixups[len(a.instrs)] = label
	a.emit(Instr{Op: OpJal, Rd: a.checkReg(rd)})
}

// Jalr emits rd = pc+1; pc = rs1 + imm (computed jump).
func (a *Assembler) Jalr(rd, rs1 int, imm uint32) {
	a.emit(Instr{Op: OpJalr, Rd: a.checkReg(rd), Rs1: a.checkReg(rs1), Imm: imm})
}

// Ecall emits a host call with the given service code.
func (a *Assembler) Ecall(code uint32) {
	a.emit(Instr{Op: OpEcall, Imm: code})
}

// Halt stops the machine with exit code r1.
func (a *Assembler) Halt() { a.emit(Instr{Op: OpHalt}) }

// --- Pseudo-instructions ---

// Mov emits rd = rs.
func (a *Assembler) Mov(rd, rs int) { a.Add(rd, rs, R0) }

// Nop emits a no-op.
func (a *Assembler) Nop() { a.Add(R0, R0, R0) }

// J jumps unconditionally to label.
func (a *Assembler) J(label string) { a.Jal(R0, label) }

// Call jumps to label saving the return address in the link register.
func (a *Assembler) Call(label string) { a.Jal(LinkReg, label) }

// Ret returns through the link register.
func (a *Assembler) Ret() { a.Jalr(R0, LinkReg, 0) }

// HaltCode emits li r1, code; halt.
func (a *Assembler) HaltCode(code uint32) {
	a.Li(R1, code)
	a.Halt()
}

// ReadInput emits ecall SysRead then moves the word from r1 to rd.
func (a *Assembler) ReadInput(rd int) {
	a.Ecall(SysRead)
	if rd != R1 {
		a.Mov(rd, R1)
	}
}

// WriteJournal emits a journal append of rs.
func (a *Assembler) WriteJournal(rs int) {
	if rs != R1 {
		a.Mov(R1, rs)
	}
	a.Ecall(SysJournal)
}

// Assemble resolves labels and returns the program.
func (a *Assembler) Assemble() (*Program, error) {
	if len(a.errs) > 0 {
		return nil, fmt.Errorf("asm: %d errors, first: %w", len(a.errs), a.errs[0])
	}
	instrs := make([]Instr, len(a.instrs))
	copy(instrs, a.instrs)
	for idx, label := range a.fixups {
		target, ok := a.labels[label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q at instr %d", label, idx)
		}
		instrs[idx].Imm = uint32(target)
	}
	return &Program{Instrs: instrs}, nil
}

// MustAssemble is Assemble that panics on error; for statically known
// guest programs whose assembly is covered by tests.
func (a *Assembler) MustAssemble() *Program {
	p, err := a.Assemble()
	if err != nil {
		panic(err)
	}
	return p
}

// Listing renders the program with labels and comments for debugging.
func (a *Assembler) Listing() string {
	byIndex := make(map[int][]string)
	for name, idx := range a.labels {
		byIndex[idx] = append(byIndex[idx], name)
	}
	var out []byte
	for i, in := range a.instrs {
		names := byIndex[i]
		sort.Strings(names)
		for _, n := range names {
			out = append(out, fmt.Sprintf("%s:\n", n)...)
		}
		line := fmt.Sprintf("  %4d  %v", i, in)
		if label, ok := a.fixups[i]; ok {
			line += fmt.Sprintf(" -> %s", label)
		}
		if c, ok := a.comment[i]; ok {
			line += "  ; " + c
		}
		out = append(out, (line + "\n")...)
	}
	return string(out)
}
