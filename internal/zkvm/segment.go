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
// input/journal cursors, and the live memory image. The image is
// canonicalised as the address-sorted list of (addr, value) pairs with
// value != 0 — a zero-valued word is indistinguishable from fresh
// memory under TinyRISC semantics (loads of unwritten words read 0),
// so dropping zeros makes the canonical form unique.
//
// The key trick that keeps segment verification local: at the start of
// every non-first segment the prover materialises the entry image as
// synthetic *import writes* at the head of the segment's memory log
// (Seq 0..MemLen-1, Step = importStep). Row 0 of the segment then has
// MemPtr == MemLen, and because imports are ordinary log entries:
//
//   - the grand-product / sorted-log consistency argument needs no
//     changes (imports sort first within their address, so reads see
//     the imported value);
//   - the exit image is a pure function of the segment's own sorted
//     log (last access per address, value != 0), so exit-image
//     correctness is checkable by sampled openings against the sorted
//     log alone, with no carry-over or absence proofs.
//
// Adjacent segments share their boundary row: segment i's last row is
// byte-identical (modulo segment-local MemPtr/InPtr/JPtr rebasing) to
// the machine state segment i+1 starts from, and the verifier checks
// both rows against the same committed SegmentState.

// importStep is the Step sentinel of synthetic import writes. Real
// rows can never reach it: step counts are bounded by MaxSteps, which
// is far below 2^32-1.
const importStep = 0xffffffff

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
	// MemLen is the number of live (addr, val != 0) pairs in the
	// canonical boundary memory image; MemRoot commits them in address
	// order (salted leaves, imgBytes each).
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

// imagePair is one live word of a boundary memory image.
type imagePair struct {
	Addr, Val uint32
}

// imgBytes is the committed leaf size of a boundary-image pair.
const imgBytes = 8

func encodeImagePairInto(b []byte, p imagePair) {
	binary.LittleEndian.PutUint32(b[0:], p.Addr)
	binary.LittleEndian.PutUint32(b[4:], p.Val)
}

func decodeImagePair(b []byte) (imagePair, error) {
	var p imagePair
	if len(b) != imgBytes {
		return p, fmt.Errorf("zkvm: image leaf has %d bytes, want %d", len(b), imgBytes)
	}
	p.Addr = binary.LittleEndian.Uint32(b[0:])
	p.Val = binary.LittleEndian.Uint32(b[4:])
	return p, nil
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
// segment-local rows, memory log (imports first) and journal; entry
// and exit are the boundary states, with MemRoot filled in by the
// prover once the boundary trees are built.
type segmentExecution struct {
	ex       *Execution
	index    int
	final    bool
	entry    SegmentState
	exit     SegmentState
	entryImg []imagePair
	exitImg  []imagePair
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
// concurrently (or on different workers) yet stay byte-deterministic
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
