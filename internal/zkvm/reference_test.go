package zkvm

// The emulator as it stood before the machine core (PR 14), kept as
// the reference of the differential tests in machine_test.go: the
// map-backed guest memory, the closure-and-copy step with its own
// opcode switch, and the three hand-copied loops (monolithic,
// segmented, count-only). Only the names (ref…) and the slab pooling
// (plain append here) differ from the parent commit, and the arms of
// the retired opcodes and of the retired ecall 4 are gone with them,
// and the memory log and the boundary images are seal format v6's
// (each access logs the word's previous value and access time, images
// carry times, no import writes); do not "fix" or modernise this file
// otherwise — its value is that it does not change.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// errInputExhausted is the trap reason both reference environments
// share.
var errInputExhausted = errors.New("input tape exhausted")

// refExecEnv supplies the step function with its value sources. The
// emulator backs it with real memory and the input tape; the verifier
// backs it with the opened memory-log entries and journal.
type refExecEnv interface {
	load(addr uint32) (uint32, error)
	store(addr, val uint32) error
	readInput() (uint32, error)
	writeJournal(val uint32) error
}

// refIOCounts tallies the side effects of one step, used to check the
// MemPtr/InPtr/JPtr continuity between adjacent rows.
type refIOCounts struct {
	mem, in, journal uint32
}

// refStep is the parent commit's step: it executes the instruction at
// row.PC against env and returns the successor machine state.
func refStep(prog *Program, row *Row, env refExecEnv) (nextPC uint32, nextRegs [NumRegs]uint32, counts refIOCounts, halted bool, err error) {
	if row.PC >= uint32(len(prog.Instrs)) {
		return 0, nextRegs, counts, false, fmt.Errorf("pc %d outside program of %d instructions", row.PC, len(prog.Instrs))
	}
	in := prog.Instrs[row.PC]
	regs := row.Regs
	nextPC = row.PC + 1

	setRd := func(v uint32) {
		if in.Rd != 0 {
			regs[in.Rd] = v
		}
	}
	rs1, rs2 := regs[in.Rs1], regs[in.Rs2]

	switch in.Op {
	case OpAdd:
		setRd(rs1 + rs2)
	case OpSub:
		setRd(rs1 - rs2)
	case OpMul:
		setRd(rs1 * rs2)
	case OpAnd:
		setRd(rs1 & rs2)
	case OpOr:
		setRd(rs1 | rs2)
	case OpXor:
		setRd(rs1 ^ rs2)
	case OpSltu:
		if rs1 < rs2 {
			setRd(1)
		} else {
			setRd(0)
		}
	case OpAddi:
		setRd(rs1 + in.Imm)
	case OpAndi:
		setRd(rs1 & in.Imm)
	case OpXori:
		setRd(rs1 ^ in.Imm)
	case OpSlli:
		setRd(rs1 << (in.Imm & 31))
	case OpSrli:
		setRd(rs1 >> (in.Imm & 31))
	case OpSltiu:
		if rs1 < in.Imm {
			setRd(1)
		} else {
			setRd(0)
		}
	case OpLi:
		setRd(in.Imm)
	case OpLw:
		v, lerr := env.load(rs1 + in.Imm)
		if lerr != nil {
			return 0, regs, counts, false, lerr
		}
		counts.mem++
		setRd(v)
	case OpSw:
		if serr := env.store(rs1+in.Imm, rs2); serr != nil {
			return 0, regs, counts, false, serr
		}
		counts.mem++
	case OpBeq:
		if rs1 == rs2 {
			nextPC = in.Imm
		}
	case OpBne:
		if rs1 != rs2 {
			nextPC = in.Imm
		}
	case OpBltu:
		if rs1 < rs2 {
			nextPC = in.Imm
		}
	case OpBgeu:
		if rs1 >= rs2 {
			nextPC = in.Imm
		}
	case OpJal:
		setRd(row.PC + 1)
		nextPC = in.Imm
	case OpJalr:
		setRd(row.PC + 1)
		nextPC = rs1 + in.Imm
	case OpEcall:
		switch in.Imm {
		case SysRead:
			v, rerr := env.readInput()
			if rerr != nil {
				return 0, regs, counts, false, rerr
			}
			counts.in++
			regs[R1] = v
		case SysJournal:
			if jerr := env.writeJournal(regs[R1]); jerr != nil {
				return 0, regs, counts, false, jerr
			}
			counts.journal++
		case SysHash:
			addr, n, dst := regs[R1], regs[R2], regs[R3]
			if n > maxHashWords {
				return 0, regs, counts, false, fmt.Errorf("sys_hash length %d exceeds limit", n)
			}
			buf := make([]byte, 4*n)
			for i := uint32(0); i < n; i++ {
				v, lerr := env.load(addr + i)
				if lerr != nil {
					return 0, regs, counts, false, lerr
				}
				counts.mem++
				binary.LittleEndian.PutUint32(buf[4*i:], v)
			}
			digest := sha256.Sum256(buf)
			for j := uint32(0); j < 8; j++ {
				w := binary.LittleEndian.Uint32(digest[4*j:])
				if serr := env.store(dst+j, w); serr != nil {
					return 0, regs, counts, false, serr
				}
				counts.mem++
			}
		default:
			return 0, regs, counts, false, fmt.Errorf("unknown ecall %d", in.Imm)
		}
	case OpHalt:
		return row.PC, regs, counts, true, nil
	default:
		return 0, regs, counts, false, fmt.Errorf("invalid opcode %v", in.Op)
	}
	regs[0] = 0 // r0 is hardwired
	return nextPC, regs, counts, false, nil
}

// refEmuEnv is the concrete environment used during real execution.
// ts holds each word's last access time in the open segment.
type refEmuEnv struct {
	mem     map[uint32]uint32
	ts      map[uint32]uint32
	memLog  []MemEntry
	step    uint32
	input   []uint32
	inPtr   int
	journal []uint32
}

func (e *refEmuEnv) load(addr uint32) (uint32, error) {
	v := e.mem[addr]
	e.memLog = append(e.memLog, MemEntry{Addr: addr, Val: v, PrevVal: v, PrevTs: e.ts[addr]})
	e.ts[addr] = uint32(len(e.memLog))
	return v, nil
}

func (e *refEmuEnv) store(addr, val uint32) error {
	e.memLog = append(e.memLog, MemEntry{Addr: addr, Val: val, PrevVal: e.mem[addr], PrevTs: e.ts[addr], IsWrite: true})
	e.ts[addr] = uint32(len(e.memLog))
	e.mem[addr] = val
	return nil
}

func (e *refEmuEnv) readInput() (uint32, error) {
	if e.inPtr >= len(e.input) {
		return 0, errInputExhausted
	}
	v := e.input[e.inPtr]
	e.inPtr++
	return v, nil
}

func (e *refEmuEnv) writeJournal(val uint32) error {
	e.journal = append(e.journal, val)
	return nil
}

// refExecute runs the guest program over the private input tape and
// returns the full traced execution, or a *TrapError / ErrStepLimit.
func refExecute(prog *Program, input []uint32, opts ExecOptions) (*Execution, error) {
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	env := &refEmuEnv{mem: make(map[uint32]uint32), ts: make(map[uint32]uint32), input: input, memLog: nil}
	var (
		pc   uint32
		regs [NumRegs]uint32
	)
	rows := []Row(nil)
	for stepNo := 0; ; stepNo++ {
		if stepNo >= maxSteps {
			return nil, ErrStepLimit
		}
		row := Row{PC: pc, Regs: regs, MemPtr: uint32(len(env.memLog)), InPtr: uint32(env.inPtr), JPtr: uint32(len(env.journal))}
		rows = append(rows, row)
		env.step = uint32(stepNo)
		nextPC, nextRegs, _, halted, err := refStep(prog, &row, env)
		if err != nil {
			return nil, &TrapError{PC: pc, Step: stepNo, Reason: err.Error()}
		}
		if halted {
			return &Execution{
				Program:  prog,
				Rows:     rows,
				MemLog:   env.memLog,
				Journal:  env.journal,
				ExitCode: regs[R1],
			}, nil
		}
		pc, regs = nextPC, nextRegs
	}
}

// refImage canonicalises the current memory maps as a final table:
// address-sorted (addr, val, ts) records of every word with val != 0 or
// ts != 0.
func refImage(mem, ts map[uint32]uint32) []imageRecord {
	img := make([]imageRecord, 0, len(mem))
	for a, v := range mem {
		if v != 0 || ts[a] != 0 {
			img = append(img, imageRecord{Addr: a, Val: v, Ts: ts[a]})
		}
	}
	for a, t := range ts {
		if _, ok := mem[a]; !ok && t != 0 {
			img = append(img, imageRecord{Addr: a, Ts: t})
		}
	}
	sort.Slice(img, func(i, j int) bool { return img[i].Addr < img[j].Addr })
	return img
}

// refExecuteSegmented runs the guest like refExecute but cuts the trace
// every segmentCycles steps. Each non-final segment executes exactly
// segmentCycles steps and carries one extra boundary row (the
// pre-state of the next segment's first step); the final segment ends
// on the halt row. maxSteps bounds the *total* cycle count.
func refExecuteSegmented(prog *Program, input []uint32, opts ExecOptions, segmentCycles int) ([]*segmentExecution, error) {
	if segmentCycles < minSegmentCycles {
		segmentCycles = minSegmentCycles
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	env := &refEmuEnv{mem: make(map[uint32]uint32), ts: make(map[uint32]uint32), input: input}
	var (
		pc       uint32
		regs     [NumRegs]uint32
		segs     []*segmentExecution
		globalIn int // input cursor at segment entry
		globalJ  int // journal words written before this segment
	)
	// newSegment starts segment index with the given entry image.
	newSegment := func(index int, img []imageRecord) *segmentExecution {
		s := &segmentExecution{
			index:    index,
			entryImg: img,
			entry: SegmentState{
				PC: pc, Regs: regs,
				InPtr:  uint32(globalIn),
				JPtr:   uint32(globalJ),
				MemLen: uint32(len(img)),
			},
			ex: &Execution{Program: prog, Rows: nil, MemLog: nil},
		}
		if index == 0 {
			s.entry.MemRoot = genesisRoot()
		}
		env.memLog = s.ex.MemLog
		env.journal = nil
		return s
	}
	seg := newSegment(0, nil)
	for stepNo := 0; ; stepNo++ {
		if stepNo >= maxSteps {
			seg.ex.MemLog = env.memLog
			segs = append(segs, seg)
			return nil, ErrStepLimit
		}
		if len(seg.ex.Rows) == segmentCycles {
			// Cut: the boundary row below closes this segment and opens
			// the next. Snapshot the image first; the next segment reads
			// every word at time zero.
			img := refImage(env.mem, env.ts)
			env.ts = make(map[uint32]uint32)
			row := Row{PC: pc, Regs: regs,
				MemPtr: uint32(len(env.memLog)),
				InPtr:  uint32(env.inPtr - globalIn),
				JPtr:   uint32(len(env.journal))}
			seg.ex.Rows = append(seg.ex.Rows, row)
			seg.ex.MemLog = env.memLog
			seg.ex.Journal = env.journal
			globalIn = env.inPtr
			globalJ += len(env.journal)
			seg.exit = SegmentState{
				PC: pc, Regs: regs,
				InPtr:  uint32(globalIn),
				JPtr:   uint32(globalJ),
				MemLen: uint32(len(img)),
			}
			seg.exitImg = img
			segs = append(segs, seg)
			seg = newSegment(len(segs), img)
		}
		row := Row{PC: pc, Regs: regs,
			MemPtr: uint32(len(env.memLog)),
			InPtr:  uint32(env.inPtr - globalIn),
			JPtr:   uint32(len(env.journal))}
		seg.ex.Rows = append(seg.ex.Rows, row)
		env.step = uint32(len(seg.ex.Rows) - 1)
		nextPC, nextRegs, _, halted, err := refStep(prog, &row, env)
		seg.ex.MemLog = env.memLog
		if err != nil {
			segs = append(segs, seg)
			return nil, &TrapError{PC: pc, Step: stepNo, Reason: err.Error()}
		}
		if halted {
			seg.final = true
			seg.exitImg = refImage(env.mem, env.ts)
			seg.ex.Journal = env.journal
			seg.ex.ExitCode = regs[R1]
			segs = append(segs, seg)
			return segs, nil
		}
		pc, regs = nextPC, nextRegs
	}
}

// refCountEnv is the recording-free twin of refEmuEnv. Loads and stores hit
// the memory map directly with no log append; the journal is still
// accumulated because a count-only run keeps it, guest aborts included.
type refCountEnv struct {
	mem     map[uint32]uint32
	input   []uint32
	inPtr   int
	journal []uint32
}

func (e *refCountEnv) load(addr uint32) (uint32, error) { return e.mem[addr], nil }

func (e *refCountEnv) store(addr, val uint32) error {
	e.mem[addr] = val
	return nil
}

func (e *refCountEnv) readInput() (uint32, error) {
	if e.inPtr >= len(e.input) {
		return 0, errInputExhausted
	}
	v := e.input[e.inPtr]
	e.inPtr++
	return v, nil
}

func (e *refCountEnv) writeJournal(val uint32) error {
	e.journal = append(e.journal, val)
	return nil
}
