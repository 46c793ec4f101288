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

// logEntry decodes the log entry at position pos, whose time is pos+1:
// it may read no tuple of its own time or later, which is what rules
// out a cycle of reads in the memory argument.
func logEntry(b []byte, pos int) (MemEntry, error) {
	e, err := decodeMemEntry(b)
	if err == nil && int64(e.PrevTs) > int64(pos) {
		err = fmt.Errorf("log entry %d reads a tuple of time %d", pos, e.PrevTs)
	}
	return e, err
}

// productStep reads span as the leaves holding products i and i+1 of
// column c and checks P[i+1]·den = P[i]·num: the step multiplies in
// num/den, the factors of record i+1 of the column's table.
func productStep(c column, span []Opening, i int, num, den field.Elem) error {
	var pair [2][]byte
	recs, err := c.records(pair[:0], span, i, i+2)
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
	if field.Mul(pj, den) != field.Mul(pi, num) {
		return fmt.Errorf("product step incorrect")
	}
	return nil
}

// ends reads e's product openings as the first and the last product of
// column k and checks that the first is its table's first factor,
// num/den.
func (v *segmentVerifier) ends(k int, e *Ends, num, den field.Elem) (last field.Elem, err error) {
	c := v.col(k)
	first, err := opened(c, &e.First, 0, decodeProd)
	if err != nil {
		return 0, err
	}
	if field.Mul(first, den) != num {
		return 0, fmt.Errorf("first product incorrect")
	}
	return opened(c, &e.Last, c.n-1, decodeProd)
}

// verifyEnds checks the always-open leaves of the memory argument: each
// column starts from its table's first factor, and the three columns
// balance, ∏W·∏Init = ∏R·∏F — the log's ratio of write over read
// tuples, times the entry image's product, is the final table's.
// A column over no records is one.
func (v *segmentVerifier) verifyEnds(ch *challenges) error {
	s := &v.Seal
	logRatio, finalProd, initProd := field.One, field.One, field.One
	if s.NumMem > 0 {
		b, err := v.col(proofMem).record(&s.Log.Record, 0)
		if err != nil {
			return fmt.Errorf("first log entry: %v", err)
		}
		e, err := logEntry(b, 0)
		if err != nil {
			return fmt.Errorf("first log entry: %v", err)
		}
		if logRatio, err = v.ends(proofLogProd, &s.Log, ch.write(&e, 0), ch.read(&e)); err != nil {
			return fmt.Errorf("log products: %v", err)
		}
	}
	if s.NumFinal > 0 {
		r, err := opened(v.col(proofFinal), &s.Final.Record, 0, decodeImageRecord)
		if err != nil {
			return fmt.Errorf("first final record: %v", err)
		}
		if finalProd, err = v.ends(proofFinalProd, &s.Final, ch.factor(r.Addr, r.Val, r.Ts), field.One); err != nil {
			return fmt.Errorf("final products: %v", err)
		}
	}
	if v.Entry.MemLen > 0 {
		r, err := opened(v.col(proofEntry), &s.Init.Record, 0, decodeImageRecord)
		if err != nil {
			return fmt.Errorf("first entry-image record: %v", err)
		}
		if initProd, err = v.ends(proofInitProd, &s.Init, ch.factor(r.Addr, r.Val, 0), field.One); err != nil {
			return fmt.Errorf("init products: %v", err)
		}
	}
	if field.Mul(logRatio, initProd) != finalProd {
		return fmt.Errorf("memory products do not balance: the log does not read what was written")
	}
	return nil
}

// replayEnv replays one step's side effects against the opened
// memory-log entries and the public journal.
type replayEnv struct {
	entries  []MemEntry
	idx      int
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
	e.idx++
	return m, nil
}

// load returns the entry's value, which decodeMemEntry has held to the
// word's previous value.
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
// the memory-log entries between the two rows' MemPtr cursors: the
// entries at those log positions are the step's, in order.
func verifyExecCheck(prog *Program, v *segmentVerifier, c *ExecCheck, rowIdx int, journal []uint32) error {
	var pair [2]Row
	rows, err := v.col(proofExec).rows(pair[:0], prog, c.Rows, rowIdx, rowIdx+2)
	if err != nil {
		return err
	}
	rowI, rowJ := &rows[0], &rows[1]
	if rowJ.MemPtr < rowI.MemPtr {
		return fmt.Errorf("MemPtr runs backwards: %d after %d", rowJ.MemPtr, rowI.MemPtr)
	}
	lo := int(rowI.MemPtr)
	if v.recs, err = v.col(proofMem).records(v.recs[:0], c.Mem, lo, int(rowJ.MemPtr)); err != nil {
		return fmt.Errorf("mem openings: %v", err)
	}
	v.entries = v.entries[:0]
	for n, b := range v.recs {
		e, err := logEntry(b, lo+n)
		if err != nil {
			return err
		}
		v.entries = append(v.entries, e)
	}
	env := &v.replay
	*env = replayEnv{entries: v.entries, nextRegs: rowJ.Regs, journal: journal, jptr: rowI.JPtr}
	var next Row
	halted, err := step(prog, rowI, &next, env)
	if err != nil {
		return fmt.Errorf("replay: %v", err)
	}
	if halted {
		return fmt.Errorf("halt before the final row")
	}
	if env.idx != len(v.entries) {
		return fmt.Errorf("%d opened memory entries, step consumed %d", len(v.entries), env.idx)
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

// verifyMemCheck checks step i of the log's ratio column: entry i+1,
// which reads no tuple of its own time or later, multiplies in its
// write over its read tuple's factor.
func (v *segmentVerifier) verifyMemCheck(c *ProdCheck, i int, ch *challenges) error {
	b, err := v.col(proofMem).record(&c.Record, i+1)
	if err != nil {
		return err
	}
	e, err := logEntry(b, i+1)
	if err != nil {
		return err
	}
	return productStep(v.col(proofLogProd), c.Prods, i, ch.write(&e, i+1), ch.read(&e))
}

// verifyFinalCheck checks adjacency j of the final table — records j
// and j+1 in strictly increasing address order, so that no word has
// two final records — and step j of its column.
func (v *segmentVerifier) verifyFinalCheck(c *FinalCheck, j int, ch *challenges) error {
	var pair [2][]byte
	recs, err := v.col(proofFinal).records(pair[:0], c.Records, j, j+2)
	if err != nil {
		return err
	}
	a, err := decodeImageRecord(recs[0])
	if err != nil {
		return err
	}
	b, err := decodeImageRecord(recs[1])
	if err != nil {
		return err
	}
	if b.Addr <= a.Addr {
		return fmt.Errorf("final table out of address order: %d after %d", b.Addr, a.Addr)
	}
	return productStep(v.col(proofFinalProd), c.Prods, j, ch.factor(b.Addr, b.Val, b.Ts), field.One)
}

// verifyInitCheck checks step j of the entry image's column: record
// j+1, read at time zero, multiplies in its factor.
func (v *segmentVerifier) verifyInitCheck(c *ProdCheck, j int, ch *challenges) error {
	r, err := opened(v.col(proofEntry), &c.Record, j+1, decodeImageRecord)
	if err != nil {
		return err
	}
	return productStep(v.col(proofInitProd), c.Prods, j, ch.factor(r.Addr, r.Val, 0), field.One)
}
