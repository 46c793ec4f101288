package zkvm

import (
	"encoding/binary"
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

// productStep reads span as the leaves holding elements j and j+1 of
// column c and checks c[j+1]·den = c[j]·num: the step multiplies in
// num/den, the factors of block j+1 of the column's table. It returns
// both elements' bytes, whose first prodBytes are the product.
func productStep(c column, span []Opening, j int, num, den field.Elem) ([2][]byte, error) {
	var pair [2][]byte
	recs, err := c.records(pair[:0], span, j, j+2)
	if err != nil {
		return pair, err
	}
	pj, err := decodeProd(recs[0][:prodBytes])
	if err != nil {
		return pair, err
	}
	pk, err := decodeProd(recs[1][:prodBytes])
	if err != nil {
		return pair, err
	}
	if field.Mul(pk, den) != field.Mul(pj, num) {
		return pair, fmt.Errorf("product step incorrect")
	}
	return pair, nil
}

// lastAddr reads an element of the final table's column as the address
// of its block's last record.
func lastAddr(elem []byte) uint32 { return binary.LittleEndian.Uint32(elem[prodBytes:]) }

// logBlock reads o as leaf j of the log — block j's entries, each of
// which reads no tuple of its own time or later — and returns the
// products of their write and of their read factors.
func (v *segmentVerifier) logBlock(o *Opening, j int, ch *challenges) (num, den field.Elem, err error) {
	var buf [leafRecords][]byte
	recs, err := v.col(proofMem).block(buf[:0], o, j)
	if err != nil {
		return 0, 0, err
	}
	num, den = field.One, field.One
	for k, b := range recs {
		pos := j*leafRecords + k
		e, err := logEntry(b, pos)
		if err != nil {
			return 0, 0, err
		}
		num, den = field.Mul(num, ch.write(&e, pos)), field.Mul(den, ch.read(&e))
	}
	return num, den, nil
}

// imageBlock reads o as leaf j of image tree k — the final table, or,
// with atZero, the entry image, whose records are read at time zero —
// checks that its addresses strictly increase, and returns the product
// of its records' factors and its first and last address.
func (v *segmentVerifier) imageBlock(k int, o *Opening, j int, ch *challenges, atZero bool) (num field.Elem, first, last uint32, err error) {
	var buf [leafRecords][]byte
	recs, err := v.col(k).block(buf[:0], o, j)
	if err != nil {
		return 0, 0, 0, err
	}
	num = field.One
	for n, b := range recs {
		r, err := decodeImageRecord(b)
		if err != nil {
			return 0, 0, 0, err
		}
		if n == 0 {
			first = r.Addr
		} else if r.Addr <= last {
			return 0, 0, 0, fmt.Errorf("image out of address order: %d after %d", r.Addr, last)
		}
		if atZero {
			r.Ts = 0
		}
		num, last = field.Mul(num, ch.factor(r.Addr, r.Val, r.Ts)), r.Addr
	}
	return num, first, last, nil
}

// ends reads e's column openings as the first and the last element of
// column k and checks that the first is num/den, its table's block 0's
// factors. It returns the last element's product and the first
// element's bytes.
func (v *segmentVerifier) ends(k int, e *Ends, num, den field.Elem) (last field.Elem, first []byte, err error) {
	c := v.col(k)
	if first, err = c.record(&e.First, 0); err != nil {
		return 0, nil, err
	}
	p, err := decodeProd(first[:prodBytes])
	if err != nil {
		return 0, nil, err
	}
	if field.Mul(p, den) != num {
		return 0, nil, fmt.Errorf("first product incorrect")
	}
	b, err := c.record(&e.Last, c.n-1)
	if err != nil {
		return 0, nil, err
	}
	last, err = decodeProd(b[:prodBytes])
	return last, first, err
}

// verifyEnds checks the always-open leaves of the memory argument: each
// column starts from its table's block 0 — the final table's also from
// that block's last address, its lastAddr — and the three columns
// balance, ∏W·∏Init = ∏R·∏F — the log's ratio of write over read
// tuples, times the entry image's product, is the final table's. A
// column over no records is one.
func (v *segmentVerifier) verifyEnds(ch *challenges) error {
	s := &v.Seal
	logRatio, finalProd, initProd := field.One, field.One, field.One
	if s.NumMem > 0 {
		num, den, err := v.logBlock(&s.Log.Record, 0, ch)
		if err != nil {
			return fmt.Errorf("first log block: %v", err)
		}
		if logRatio, _, err = v.ends(proofLogProd, &s.Log, num, den); err != nil {
			return fmt.Errorf("log products: %v", err)
		}
	}
	if s.NumFinal > 0 {
		num, _, last, err := v.imageBlock(proofFinal, &s.Final.Record, 0, ch, false)
		if err != nil {
			return fmt.Errorf("first final block: %v", err)
		}
		var first []byte
		if finalProd, first, err = v.ends(proofFinalProd, &s.Final, num, field.One); err != nil {
			return fmt.Errorf("final products: %v", err)
		}
		if want := lastAddr(first); last != want {
			return fmt.Errorf("final block 0 ends at address %d, its column says %d", last, want)
		}
	}
	if v.Entry.MemLen > 0 {
		num, _, _, err := v.imageBlock(proofEntry, &s.Init.Record, 0, ch, true)
		if err != nil {
			return fmt.Errorf("first entry-image block: %v", err)
		}
		if initProd, _, err = v.ends(proofInitProd, &s.Init, num, field.One); err != nil {
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

// verifyMemCheck checks block step j of the log's ratio column: the
// entries of block j+1, each of which reads no tuple of its own time or
// later, multiply in their write over their read factors.
func (v *segmentVerifier) verifyMemCheck(c *ProdCheck, j int, ch *challenges) error {
	num, den, err := v.logBlock(&c.Record, j+1, ch)
	if err != nil {
		return err
	}
	_, err = productStep(v.col(proofLogProd), c.Prods, j, num, den)
	return err
}

// verifyFinalCheck checks block step j of the final table: block j+1's
// addresses strictly increase, start above lastAddr_j and end at
// lastAddr_{j+1} — so that, with block 0 checked by verifyEnds, the
// whole table strictly increases and no word has two final records —
// and its records' factors are the column's step.
func (v *segmentVerifier) verifyFinalCheck(c *ProdCheck, j int, ch *challenges) error {
	num, first, last, err := v.imageBlock(proofFinal, &c.Record, j+1, ch, false)
	if err != nil {
		return err
	}
	pair, err := productStep(v.col(proofFinalProd), c.Prods, j, num, field.One)
	if err != nil {
		return err
	}
	if prev := lastAddr(pair[0]); first <= prev {
		return fmt.Errorf("final table out of address order: %d after %d", first, prev)
	}
	if want := lastAddr(pair[1]); last != want {
		return fmt.Errorf("final block %d ends at address %d, its column says %d", j+1, last, want)
	}
	return nil
}

// verifyInitCheck checks block step j of the entry image's column: the
// records of block j+1, read at time zero, multiply in their factors.
func (v *segmentVerifier) verifyInitCheck(c *ProdCheck, j int, ch *challenges) error {
	num, _, _, err := v.imageBlock(proofEntry, &c.Record, j+1, ch, true)
	if err != nil {
		return err
	}
	_, err = productStep(v.col(proofInitProd), c.Prods, j, num, field.One)
	return err
}
