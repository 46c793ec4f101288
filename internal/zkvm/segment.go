package zkvm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"zkflow/internal/merkle"
)

// This file implements the execution side of continuations (paper §7:
// "partition the workload, merge partial proofs"): a guest run is cut
// into bounded-cycle segments, each of which is proved independently
// and chained through committed boundary states, exactly like RISC
// Zero's continuation model.
//
// A segment boundary is a *machine state*: pc, registers, cumulative
// input/journal cursors, and the memory image. The image is the
// segment's final table: in address order, one (addr, val, ts) record
// per word the segment accessed or left nonzero, ts being the word's
// last access time in the segment (0 if it did not access it). A word
// that reads zero at time zero is indistinguishable from fresh memory
// under TinyRISC semantics (loads of unwritten words read 0), so its
// virtual tuple (addr, 0, 0) needs no record.
//
// What keeps segment verification local is offline memory checking
// (Blum et al., "Checking the correctness of memories"): the next
// segment reads its entry image at time zero, so that image is the
// init multiset of its memory argument and this segment's final table
// closes its own — the segment's log balances against both boundary
// images with no replay of the image into the log (DESIGN.md §8, §9).
//
// Adjacent segments share their boundary row: segment i's last row is
// byte-identical (modulo segment-local MemPtr/InPtr/JPtr rebasing) to
// the machine state segment i+1 starts from, and the verifier checks
// both rows against the same committed SegmentState.

// minSegmentCycles floors ProveOptions.SegmentCycles so a degenerate
// setting cannot explode a run into millions of one-step segments.
const minSegmentCycles = 64

// SegmentState is a committed machine state at a segment boundary.
type SegmentState struct {
	PC   uint32
	Regs [NumRegs]uint32
	// InPtr and JPtr are cumulative across the whole run: total input
	// words consumed and journal words written before this boundary.
	InPtr uint32
	JPtr  uint32
	// MemLen is the number of records of the boundary memory image;
	// MemRoot commits them in address order (salted leaves, imgBytes
	// each).
	MemLen  uint32
	MemRoot merkle.Hash
}

// stateBytes is the canonical encoded size of a SegmentState.
const stateBytes = 4 + 4*NumRegs + 4 + 4 + 4 + 32

// encodeState serialises the state canonically (transcript + receipt).
func encodeState(s *SegmentState) []byte {
	b := make([]byte, stateBytes)
	binary.LittleEndian.PutUint32(b[0:], s.PC)
	for i, v := range s.Regs {
		binary.LittleEndian.PutUint32(b[4+4*i:], v)
	}
	off := 4 + 4*NumRegs
	binary.LittleEndian.PutUint32(b[off:], s.InPtr)
	binary.LittleEndian.PutUint32(b[off+4:], s.JPtr)
	binary.LittleEndian.PutUint32(b[off+8:], s.MemLen)
	copy(b[off+12:], s.MemRoot[:])
	return b
}

// decodeState parses a canonical SegmentState.
func decodeState(b []byte) (SegmentState, error) {
	var s SegmentState
	if len(b) != stateBytes {
		return s, fmt.Errorf("zkvm: segment state has %d bytes, want %d", len(b), stateBytes)
	}
	s.PC = binary.LittleEndian.Uint32(b[0:])
	for i := range s.Regs {
		s.Regs[i] = binary.LittleEndian.Uint32(b[4+4*i:])
	}
	off := 4 + 4*NumRegs
	s.InPtr = binary.LittleEndian.Uint32(b[off:])
	s.JPtr = binary.LittleEndian.Uint32(b[off+4:])
	s.MemLen = binary.LittleEndian.Uint32(b[off+8:])
	copy(s.MemRoot[:], b[off+12:])
	return s, nil
}

// imageRecord is one record of a memory image: a word, its value and
// the time of its last access in the segment the image closes.
type imageRecord struct {
	Addr, Val, Ts uint32
}

// imgBytes is the committed leaf size of an image record.
const imgBytes = 12

func encodeImageRecordInto(b []byte, r imageRecord) {
	binary.LittleEndian.PutUint32(b[0:], r.Addr)
	binary.LittleEndian.PutUint32(b[4:], r.Val)
	binary.LittleEndian.PutUint32(b[8:], r.Ts)
}

func decodeImageRecord(b []byte) (imageRecord, error) {
	var r imageRecord
	if len(b) != imgBytes {
		return r, fmt.Errorf("zkvm: image leaf has %d bytes, want %d", len(b), imgBytes)
	}
	r.Addr = binary.LittleEndian.Uint32(b[0:])
	r.Val = binary.LittleEndian.Uint32(b[4:])
	r.Ts = binary.LittleEndian.Uint32(b[8:])
	return r, nil
}

// genesisRoot is the root of the empty boundary image — a zero-leaf
// tree, which is salt-independent, so every verifier can recompute it.
var genesisRoot = sync.OnceValue(func() merkle.Hash {
	t := merkle.BuildHashes(nil)
	r := t.Root()
	t.Release()
	return r
})

// GenesisState is the entry state of segment 0: the reset machine over
// fresh memory.
func GenesisState() SegmentState {
	return SegmentState{MemRoot: genesisRoot()}
}

// segmentExecution is one traced slice of a guest run. ex holds
// segment-local rows, memory log and journal; entry and exit are the
// boundary states, with MemRoot filled in by the prover once the
// boundary trees are built. exitImg is the segment's final table: the
// exit image, or for the final segment the table its seal commits.
type segmentExecution struct {
	ex       *Execution
	index    int
	final    bool
	entry    SegmentState
	exit     SegmentState
	entryImg []imageRecord
	exitImg  []imageRecord
}

// executeSegmented runs the guest like Execute but cuts the trace
// every segmentCycles steps (floored to minSegmentCycles; zero never
// cuts).
func executeSegmented(prog *Program, input []uint32, opts ExecOptions, segmentCycles int) ([]*segmentExecution, error) {
	m := newMachine(prog, input, segmentCycles, true)
	if err := m.run(opts.MaxSteps); err != nil {
		return nil, err
	}
	return m.segs, nil
}

// deriveSubSeed expands the master salt seed into an independent
// per-segment or per-boundary seed, so segment proofs can be generated
// concurrently yet stay byte-deterministic
// for a fixed master seed.
func deriveSubSeed(seed *[32]byte, kind string, index int) [32]byte {
	h := sha256.New()
	h.Write(seed[:])
	h.Write([]byte("zkvm-cont-" + kind))
	var idx [4]byte
	binary.LittleEndian.PutUint32(idx[:], uint32(index))
	h.Write(idx[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}
