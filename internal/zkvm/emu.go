package zkvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"zkflow/internal/hashk"
	"zkflow/internal/slab"
)

// Row is one execution-trace row: the machine state *before* the step
// at that row executes. Rows are what the prover commits to and what
// sampled transition checks re-execute.
type Row struct {
	PC     uint32
	Regs   [NumRegs]uint32
	MemPtr uint32 // memory-log length before this step
	InPtr  uint32 // input words consumed before this step
	JPtr   uint32 // journal words written before this step
}

// MemEntry is one entry of the memory-access log, in program order.
// The entry at position i of a segment's log is the access at time
// i+1: it reads the tuple (Addr, PrevVal, PrevTs) and writes
// (Addr, Val, i+1). Which step issued it is the rows' business — a
// row's MemPtr is the log position of its step's first access.
type MemEntry struct {
	Addr    uint32
	Val     uint32 // the word after the access: what a load read, what a store wrote
	PrevVal uint32 // the word before the access
	PrevTs  uint32 // the time of the word's last access in the segment, 0 if none
	IsWrite bool
}

// Execution is a completed guest run: the full trace, the memory log
// in program order, and the public journal.
type Execution struct {
	Program  *Program
	Rows     []Row
	MemLog   []MemEntry
	Journal  []uint32
	ExitCode uint32
}

// TrapError reports an execution fault. A trapped guest cannot be
// proven: this is the "failed proof generation" signal the paper's
// tamper experiment relies on.
type TrapError struct {
	PC     uint32
	Step   int
	Reason string
}

// Error implements the error interface.
func (e *TrapError) Error() string {
	return fmt.Sprintf("zkvm: trap at pc=%d step=%d: %s", e.PC, e.Step, e.Reason)
}

// ErrStepLimit reports that the guest exceeded the configured cycle
// budget.
var ErrStepLimit = errors.New("zkvm: step limit exceeded")

// maxHashWords bounds a single SysHash request.
const maxHashWords = 1 << 24

// Slab pools for the execution-trace tables. A 1000-record
// aggregation trace is ~400k rows (~32 MB); allocating it fresh per
// proof costs the runtime a full zeroing pass plus append-growth
// copies. Prove recycles the slabs of executions it created itself
// (releaseExecution); an execution handed to an external caller
// (Execute) neither comes from the pools nor returns to them.
var (
	rowSlabs slab.Pool[Row]
	memSlabs slab.Pool[MemEntry]
)

// traceHint is a running max of trace dimensions — rows in the high 32
// bits, memory-log entries in the low 32 — updated by CAS; stale or zero
// hints only cost growth, never correctness.
type traceHint struct{ atomic.Uint64 }

// anyTrace is the largest trace any program has produced: at least
// what a pooled trace grows into (growDoubling).
var anyTrace traceHint

// load reports the largest (rows, memLog) trace noted, or zeros before
// the first completed run.
func (h *traceHint) load() (rows, mem int) {
	v := h.Load()
	return int(v >> 32), int(v & 0xffffffff)
}

// note folds a completed run's trace dimensions into the running max.
func (h *traceHint) note(rows, mem int) {
	nr, nm := uint64(rows), uint64(mem)
	if nr > 0xffffffff {
		nr = 0xffffffff
	}
	if nm > 0xffffffff {
		nm = 0xffffffff
	}
	for {
		old := h.Load()
		or, om := old>>32, old&0xffffffff
		if nr <= or && nm <= om {
			return
		}
		r, m := max(nr, or), max(nm, om)
		if h.CompareAndSwap(old, r<<32|m) {
			return
		}
	}
}

// releaseExecution returns the trace slabs of an internally-created
// execution to the pools. Only call it when the execution (and
// everything aliasing its slices) is dead; the receipt never aliases
// them — openings re-encode rows into fresh buffers and the journal
// is copied.
func releaseExecution(ex *Execution) {
	rowSlabs.Put(ex.Rows)
	memSlabs.Put(ex.MemLog)
	ex.Rows, ex.MemLog = nil, nil
}

// growDoubling returns s moved into a slab of pool of at least twice
// the capacity (at least 1024), and puts s back. The runtime grows large
// slices by only ~1.25x, so an N-row trace built with bare append
// memmoves ~4N bytes through growslice; doubling bounds the total copy
// traffic at N. Trace and memory logs reach tens of MB, so this is a
// measurable slice of serial proving time (E14).
//
// From a pool the slab also holds at least least elements: the size of
// the largest trace any program has produced. A program that has never
// run — a freshly compiled query — then grows once, into a slab an
// earlier run left in the pool, not up a ladder of doublings. A nil pool
// grows into fresh memory by doubling alone.
func growDoubling[T any](pool *slab.Pool[T], s []T, least int) []T {
	n := max(2*cap(s), 1024)
	if pool != nil {
		n = max(n, least)
	}
	grown := pool.Get(n)[:len(s)]
	copy(grown, s)
	pool.Put(s)
	return grown
}

// execEnv supplies the step function with its value sources. The
// emulator backs it with the machine's paged memory and input tape;
// the verifier backs it with the opened memory-log entries and journal.
type execEnv interface {
	load(addr uint32) (uint32, error)
	store(addr, val uint32) error
	readInput() (uint32, error)
	writeJournal(val uint32) error
	// hash is the SysHash service: load n words from addr, store the
	// eight words of their SHA-256 at dst. It lives behind the env so
	// that step holds no loop a register sets the length of.
	hash(addr, n, dst uint32) error
}

// hashWords is the SysHash service over an env's own loads and stores,
// packing the message into buf (4*n bytes).
func hashWords(env execEnv, buf []byte, addr, n, dst uint32) error {
	for i := uint32(0); i < n; i++ {
		v, err := env.load(addr + i)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(buf[4*i:], v)
	}
	digest := hashk.Sum(buf)
	for j := uint32(0); j < 8; j++ {
		if err := env.store(dst+j, binary.LittleEndian.Uint32(digest[4*j:])); err != nil {
			return err
		}
	}
	return nil
}

// step executes the instruction at cur.PC against env and writes the
// successor machine state into next: pc, registers, and the cursors
// advanced by the step's memory accesses, input reads and journal
// writes. It is the single source of truth for TinyRISC semantics: the
// emulator points next at the following row of its trace slab, the
// seal verifier at a scratch row it compares with the committed one.
// cur and next must not alias; on halt or error next is unspecified.
func step(prog *Program, cur, next *Row, env execEnv) (halted bool, err error) {
	pc := cur.PC
	if pc >= uint32(len(prog.Instrs)) {
		return false, fmt.Errorf("pc %d outside program of %d instructions", pc, len(prog.Instrs))
	}
	in := &prog.Instrs[pc]
	next.PC = pc + 1
	next.Regs = cur.Regs
	next.MemPtr, next.InPtr, next.JPtr = cur.MemPtr, cur.InPtr, cur.JPtr
	rs1, rs2 := cur.Regs[in.Rs1], cur.Regs[in.Rs2]

	// Cases that produce a value for rd leave it in v and fall out of
	// the switch; the rest write what they change and return.
	var v uint32
	switch in.Op {
	case OpAdd:
		v = rs1 + rs2
	case OpSub:
		v = rs1 - rs2
	case OpMul:
		v = rs1 * rs2
	case OpAnd:
		v = rs1 & rs2
	case OpOr:
		v = rs1 | rs2
	case OpXor:
		v = rs1 ^ rs2
	case OpSltu:
		if rs1 < rs2 {
			v = 1
		}
	case OpAddi:
		v = rs1 + in.Imm
	case OpAndi:
		v = rs1 & in.Imm
	case OpXori:
		v = rs1 ^ in.Imm
	case OpSlli:
		v = rs1 << (in.Imm & 31)
	case OpSrli:
		v = rs1 >> (in.Imm & 31)
	case OpSltiu:
		if rs1 < in.Imm {
			v = 1
		}
	case OpLi:
		v = in.Imm
	case OpLw:
		if v, err = env.load(rs1 + in.Imm); err != nil {
			return false, err
		}
		next.MemPtr++
	case OpSw:
		next.MemPtr++
		return false, env.store(rs1+in.Imm, rs2)
	case OpBeq:
		if rs1 == rs2 {
			next.PC = in.Imm
		}
		return false, nil
	case OpBne:
		if rs1 != rs2 {
			next.PC = in.Imm
		}
		return false, nil
	case OpBltu:
		if rs1 < rs2 {
			next.PC = in.Imm
		}
		return false, nil
	case OpBgeu:
		if rs1 >= rs2 {
			next.PC = in.Imm
		}
		return false, nil
	case OpJal:
		v, next.PC = pc+1, in.Imm
	case OpJalr:
		v, next.PC = pc+1, rs1+in.Imm
	case OpEcall:
		return false, ecall(in.Imm, cur, next, env)
	case OpHalt:
		return true, nil
	default:
		return false, fmt.Errorf("invalid opcode %v", in.Op)
	}
	next.Regs[in.Rd] = v
	next.Regs[0] = 0 // r0 is hardwired
	return false, nil
}

// ecall is step's host-service half: it runs service sys for the
// instruction at cur and records its effects in next.
func ecall(sys uint32, cur, next *Row, env execEnv) error {
	switch sys {
	case SysRead:
		v, err := env.readInput()
		if err != nil {
			return err
		}
		next.InPtr++
		next.Regs[R1] = v
	case SysJournal:
		if err := env.writeJournal(cur.Regs[R1]); err != nil {
			return err
		}
		next.JPtr++
	case SysHash:
		n := cur.Regs[R2]
		if n > maxHashWords {
			return fmt.Errorf("sys_hash length %d exceeds limit", n)
		}
		if err := env.hash(cur.Regs[R1], n, cur.Regs[R3]); err != nil {
			return err
		}
		next.MemPtr += n + 8
	default:
		return fmt.Errorf("unknown ecall %d", sys)
	}
	return nil
}

// witnessEnv is the env a committed exec leaf is expanded under. The
// one word a step can take from outside the machine state — the value
// Lw loads, or what SysRead puts in r1 — is the leaf's witness word;
// what the step puts out (stores, journal words, a hash) is not judged.
// Whether the memory log, the input tape and the journal agree with the
// rows this yields is what the sampled replay decides (replayEnv), so
// every service returns at once.
type witnessEnv struct{ word uint32 }

func (e *witnessEnv) load(uint32) (uint32, error)       { return e.word, nil }
func (e *witnessEnv) store(uint32, uint32) error        { return nil }
func (e *witnessEnv) readInput() (uint32, error)        { return e.word, nil }
func (e *witnessEnv) writeJournal(uint32) error         { return nil }
func (e *witnessEnv) hash(uint32, uint32, uint32) error { return nil }

// witnessWord is the word a committed exec leaf carries for the step
// cur -> next: the successor's value of the register the step loads
// into from outside the machine state, zero for a step that loads
// nothing. Lw into r0 discards its word, so its witness is r0: zero.
func witnessWord(prog *Program, cur, next *Row) uint32 {
	if cur.PC >= uint32(len(prog.Instrs)) {
		return 0
	}
	in := &prog.Instrs[cur.PC]
	if in.Op == OpLw {
		return next.Regs[in.Rd]
	}
	if in.Op == OpEcall && in.Imm == SysRead {
		return next.Regs[R1]
	}
	return 0
}

// ExecOptions configures guest execution.
type ExecOptions struct {
	// MaxSteps bounds the cycle count (0 means the default of 1<<26).
	MaxSteps int
}

// DefaultMaxSteps is the default cycle budget.
const DefaultMaxSteps = 1 << 26

// Execute runs the guest program over the private input tape and
// returns the full traced execution. A trap (bad pc, exhausted input,
// unknown ecall, cycle budget) returns a *TrapError or ErrStepLimit;
// no proof can be generated for a trapped run. The execution never
// comes back, so its trace is built on fresh slabs, not the pools':
// taking the warm slabs for it would send the next Prove to freshly
// faulted pages.
func Execute(prog *Program, input []uint32, opts ExecOptions) (*Execution, error) {
	m := newMachine(prog, input, neverCut)
	m.rowSlabs, m.memSlabs = nil, nil
	if err := m.run(opts.MaxSteps); err != nil {
		return nil, err
	}
	return m.seg.ex, nil
}
