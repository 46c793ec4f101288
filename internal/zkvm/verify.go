package zkvm

import (
	"errors"
	"fmt"

	"zkflow/internal/field"
)

// VerifyOptions configures receipt verification. A receipt whose
// guest halted with a nonzero exit code — an integrity check failed
// inside the guest — never verifies.
type VerifyOptions struct {
	// MinChecks rejects seals whose sampled-check count is below this
	// floor. The prover chooses k, so a verifier that cares about a
	// specific soundness level MUST set this (e.g. DefaultChecks);
	// zero accepts any k ≥ 1.
	MinChecks int
}

// ErrVerify is wrapped by every verification failure.
var ErrVerify = errors.New("zkvm: receipt verification failed")

func vErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrVerify, fmt.Sprintf(format, args...))
}

// opened reads o as the leaf holding record i of a column and decodes
// that record.
func opened[T any](c column, o *Opening, i int, decode func([]byte) (T, error)) (T, error) {
	b, err := c.record(o, i)
	if err != nil {
		var zero T
		return zero, err
	}
	return decode(b)
}

// sortedWithSuccessor reads span as the leaves holding sorted-log
// entry i and, when i is not the last, entry i+1, and decodes them;
// hasNext says whether there is a successor.
func sortedWithSuccessor(v *segmentVerifier, span []Opening, i int) (e, next MemEntry, hasNext bool, err error) {
	recs, err := v.col(proofMemSort).records(span, i, min(i+2, int(v.Seal.NumMem)))
	if err != nil {
		return e, next, false, err
	}
	if e, err = decodeMemEntry(recs[0]); err != nil || len(recs) == 1 {
		return e, next, false, err
	}
	next, err = decodeMemEntry(recs[1])
	return e, next, true, err
}

// productStep reads span as the leaves holding running products
// i and i+1 and checks P[i+1] = P[i] * (gamma - f(e)), e being entry
// i+1 of the log the column runs over.
func productStep(c column, span []Opening, i int, e *MemEntry, alpha, gamma field.Elem) error {
	recs, err := c.records(span, i, i+2)
	if err != nil {
		return err
	}
	pi, err := decodeProd(recs[0])
	if err != nil {
		return err
	}
	pj, err := decodeProd(recs[1])
	if err != nil {
		return err
	}
	if pj != field.Mul(pi, field.Sub(gamma, fingerprint(e, alpha))) {
		return fmt.Errorf("product step incorrect")
	}
	return nil
}

// verifyMemBoundary checks the always-open memory-log boundary leaves:
// the first program-order product, the sorted-log first-read rule, and
// the grand-product equality that establishes multiset equivalence.
func verifyMemBoundary(v *segmentVerifier, alpha, gamma field.Elem, nMem int) error {
	s := &v.Seal
	e0, err := opened(v.col(proofMemProg), &s.MemProgFirst, 0, decodeMemEntry)
	if err != nil {
		return fmt.Errorf("memprog first: %v", err)
	}
	if e0.Seq != 0 {
		return fmt.Errorf("first program-order entry has seq %d", e0.Seq)
	}
	p0, err := opened(v.col(proofProdProg), &s.ProdProgFirst, 0, decodeProd)
	if err != nil {
		return fmt.Errorf("prodprog first: %v", err)
	}
	if p0 != field.Sub(gamma, fingerprint(&e0, alpha)) {
		return fmt.Errorf("first program-order product incorrect")
	}

	s0, err := opened(v.col(proofMemSort), &s.MemSortFirst, 0, decodeMemEntry)
	if err != nil {
		return fmt.Errorf("memsort first: %v", err)
	}
	if !s0.IsWrite && s0.Val != 0 {
		return fmt.Errorf("first sorted access reads %d from fresh memory", s0.Val)
	}
	q0, err := opened(v.col(proofProdSort), &s.ProdSortFirst, 0, decodeProd)
	if err != nil {
		return fmt.Errorf("prodsort first: %v", err)
	}
	if q0 != field.Sub(gamma, fingerprint(&s0, alpha)) {
		return fmt.Errorf("first sorted product incorrect")
	}

	pl, err := opened(v.col(proofProdProg), &s.ProdProgLast, nMem-1, decodeProd)
	if err != nil {
		return fmt.Errorf("prodprog last: %v", err)
	}
	ql, err := opened(v.col(proofProdSort), &s.ProdSortLast, nMem-1, decodeProd)
	if err != nil {
		return fmt.Errorf("prodsort last: %v", err)
	}
	if pl != ql {
		return fmt.Errorf("memory grand products differ: logs are not multiset-equal")
	}
	return nil
}

// replayEnv replays one step's side effects against the opened
// memory-log entries and the public journal.
type replayEnv struct {
	entries  []MemEntry
	idx      int
	baseSeq  uint32
	stepIdx  uint32
	nextRegs [NumRegs]uint32
	journal  []uint32
	jptr     uint32
}

func (e *replayEnv) next(wantWrite bool, addr uint32) (MemEntry, error) {
	if e.idx >= len(e.entries) {
		return MemEntry{}, fmt.Errorf("step needs more memory entries than opened (%d)", len(e.entries))
	}
	m := e.entries[e.idx]
	if m.IsWrite != wantWrite {
		return MemEntry{}, fmt.Errorf("entry %d direction mismatch", e.idx)
	}
	if m.Addr != addr {
		return MemEntry{}, fmt.Errorf("entry %d address %d, step accesses %d", e.idx, m.Addr, addr)
	}
	if m.Seq != e.baseSeq+uint32(e.idx) {
		return MemEntry{}, fmt.Errorf("entry %d sequence %d, want %d", e.idx, m.Seq, e.baseSeq+uint32(e.idx))
	}
	if m.Step != e.stepIdx {
		return MemEntry{}, fmt.Errorf("entry %d step %d, want %d", e.idx, m.Step, e.stepIdx)
	}
	e.idx++
	return m, nil
}

func (e *replayEnv) load(addr uint32) (uint32, error) {
	m, err := e.next(false, addr)
	if err != nil {
		return 0, err
	}
	return m.Val, nil
}

func (e *replayEnv) store(addr, val uint32) error {
	m, err := e.next(true, addr)
	if err != nil {
		return err
	}
	if m.Val != val {
		return fmt.Errorf("store of %d logged as %d", val, m.Val)
	}
	return nil
}

// readInput returns the successor row's r1: private-input words are
// existential witness values, constrained only by the guest's own
// validation logic.
func (e *replayEnv) readInput() (uint32, error) { return e.nextRegs[R1], nil }

// hash allocates its message buffer — a verifier replays a handful of
// sampled steps — but never more than the opened entries could fill.
func (e *replayEnv) hash(addr, n, dst uint32) error {
	if uint64(n)+8 > uint64(len(e.entries)-e.idx) {
		return fmt.Errorf("sys_hash of %d words over %d opened memory entries", n, len(e.entries)-e.idx)
	}
	return hashWords(e, make([]byte, 4*n), addr, n, dst)
}

func (e *replayEnv) writeJournal(val uint32) error {
	if int(e.jptr) >= len(e.journal) {
		return fmt.Errorf("journal write beyond published journal")
	}
	if e.journal[e.jptr] != val {
		return fmt.Errorf("journal word %d is %d, step wrote %d", e.jptr, e.journal[e.jptr], val)
	}
	e.jptr++
	return nil
}

// verifyExecCheck re-executes the transition rowIdx -> rowIdx+1 over
// the memory-log entries between the two rows' MemPtr cursors.
func verifyExecCheck(prog *Program, v *segmentVerifier, c *ExecCheck, rowIdx int, journal []uint32) error {
	rows, err := v.col(proofExec).rows(prog, c.Rows, rowIdx, rowIdx+2)
	if err != nil {
		return err
	}
	rowI, rowJ := rows[0], rows[1]
	if rowJ.MemPtr < rowI.MemPtr {
		return fmt.Errorf("MemPtr runs backwards: %d after %d", rowJ.MemPtr, rowI.MemPtr)
	}
	mem, err := v.col(proofMemProg).records(c.Mem, int(rowI.MemPtr), int(rowJ.MemPtr))
	if err != nil {
		return fmt.Errorf("mem openings: %v", err)
	}
	entries := make([]MemEntry, len(mem))
	for n := range mem {
		if entries[n], err = decodeMemEntry(mem[n]); err != nil {
			return err
		}
	}
	env := &replayEnv{
		entries:  entries,
		baseSeq:  rowI.MemPtr,
		stepIdx:  uint32(rowIdx),
		nextRegs: rowJ.Regs,
		journal:  journal,
		jptr:     rowI.JPtr,
	}
	var next Row
	halted, err := step(prog, &rowI, &next, env)
	if err != nil {
		return fmt.Errorf("replay: %v", err)
	}
	if halted {
		return fmt.Errorf("halt before the final row")
	}
	if env.idx != len(entries) {
		return fmt.Errorf("%d opened memory entries, step consumed %d", len(entries), env.idx)
	}
	if next.PC != rowJ.PC {
		return fmt.Errorf("next pc %d, trace has %d", next.PC, rowJ.PC)
	}
	if next.Regs != rowJ.Regs {
		return fmt.Errorf("register file mismatch after step")
	}
	if next.MemPtr != rowJ.MemPtr || next.InPtr != rowJ.InPtr || next.JPtr != rowJ.JPtr {
		return fmt.Errorf("cursors (mem %d, input %d, journal %d) after step, trace has (%d, %d, %d)",
			next.MemPtr, next.InPtr, next.JPtr, rowJ.MemPtr, rowJ.InPtr, rowJ.JPtr)
	}
	return nil
}

// verifyProdCheck checks one program-order running-product step:
// P[i+1] = P[i] * (gamma - f(e[i+1])).
func verifyProdCheck(v *segmentVerifier, c *ProdCheck, i int, alpha, gamma field.Elem) error {
	e, err := opened(v.col(proofMemProg), &c.Entry, i+1, decodeMemEntry)
	if err != nil {
		return err
	}
	if e.Seq != uint32(i+1) {
		return fmt.Errorf("program-order entry %d has seq %d", i+1, e.Seq)
	}
	return productStep(v.col(proofProdProg), c.Prods, i, &e, alpha, gamma)
}

// verifySortCheck checks sorted-log adjacency i, i+1: ordering,
// read-consistency, and the sorted running-product step.
func verifySortCheck(v *segmentVerifier, c *SortCheck, i int, alpha, gamma field.Elem) error {
	ei, ej, _, err := sortedWithSuccessor(v, c.Entries, i) // i+1 < NumMem: the successor exists
	if err != nil {
		return err
	}
	switch {
	case ej.Addr < ei.Addr:
		return fmt.Errorf("sorted log out of address order")
	case ej.Addr == ei.Addr && ej.Seq <= ei.Seq:
		return fmt.Errorf("sorted log out of sequence order")
	}
	if ej.Addr == ei.Addr {
		if !ej.IsWrite && ej.Val != ei.Val {
			return fmt.Errorf("read of %d sees %d, last access was %d", ej.Addr, ej.Val, ei.Val)
		}
	} else if !ej.IsWrite && ej.Val != 0 {
		return fmt.Errorf("first access to %d reads %d from fresh memory", ej.Addr, ej.Val)
	}
	return productStep(v.col(proofProdSort), c.Prods, i, &ej, alpha, gamma)
}
