package fold

import (
	"encoding/binary"
	"errors"
	"fmt"

	"zkflow/internal/fastagg"
	"zkflow/internal/field"
	"zkflow/internal/fri"
	"zkflow/internal/gperm"
	"zkflow/internal/merkle"
	"zkflow/internal/poly"
	"zkflow/internal/stark"
)

// foldMagic tags the folded receipt wire format ("zkf4"; zkf1..zkf3
// and zkf5..zkf7 are the single, composite, and standalone-segment
// receipt kinds of internal/zkvm's two seal formats).
const foldMagic = 0x7a6b6634

var errTruncated = errors.New("fold: truncated receipt")

// journalBytes serialises a journal little-endian, matching the other
// receipt kinds.
func journalBytes(journal []uint32) []byte {
	out := make([]byte, 4*len(journal))
	for i, w := range journal {
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	return out
}

// --- writer ---

type bwriter struct{ buf []byte }

func (w *bwriter) u32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

func (w *bwriter) u64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

func (w *bwriter) raw(b []byte) { w.buf = append(w.buf, b...) }

func (w *bwriter) elem(v field.Elem) { w.u64(uint64(v)) }

func (w *bwriter) hash(h merkle.Hash) { w.raw(h[:]) }

func (w *bwriter) hashes(hs []merkle.Hash) {
	w.u32(uint32(len(hs)))
	for _, h := range hs {
		w.hash(h)
	}
}

func (w *bwriter) elems(xs []field.Elem) {
	w.u32(uint32(len(xs)))
	for _, x := range xs {
		w.elem(x)
	}
}

// --- reader ---

type breader struct {
	buf []byte
	off int
	err error
}

func (r *breader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *breader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || len(r.buf)-r.off < n {
		r.fail(errTruncated)
		return false
	}
	return true
}

func (r *breader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *breader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *breader) elem() field.Elem {
	v := r.u64()
	if r.err == nil && v >= field.Modulus {
		r.fail(errors.New("fold: non-canonical field element"))
	}
	return field.Elem(v)
}

func (r *breader) hash() (h merkle.Hash) {
	if !r.need(32) {
		return
	}
	copy(h[:], r.buf[r.off:])
	r.off += 32
	return
}

// count reads a u32 length prefix for entries of at least minBytes
// each and sanity-checks it against the remaining input, so a
// malformed length cannot force a huge allocation.
func (r *breader) count(minBytes int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if int(n) > (len(r.buf)-r.off)/minBytes {
		r.fail(errTruncated)
		return 0
	}
	return int(n)
}

func (r *breader) hashes() []merkle.Hash {
	n := r.count(32)
	if r.err != nil {
		return nil
	}
	hs := make([]merkle.Hash, n)
	for i := range hs {
		hs[i] = r.hash()
	}
	return hs
}

func (r *breader) elemSlice() []field.Elem {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	xs := make([]field.Elem, n)
	for i := range xs {
		xs[i] = r.elem()
	}
	return xs
}

// --- fold receipt ---

// MarshalBinary implements zkvm.AnyReceipt.
func (r *FoldedReceipt) MarshalBinary() ([]byte, error) {
	if r.Chain == nil || r.Chain.Stark == nil || r.Chain.Stark.Fri == nil {
		return nil, errors.New("fold: receipt missing chain proof")
	}
	w := &bwriter{}
	w.u32(foldMagic)
	writeStatement(w, r.Stmt)
	writeChain(w, r.Chain)
	return w.buf, nil
}

// encodedSize computes the exact encoded size without allocating the
// encoding (Size is called on hot reporting paths).
func encodedSize(r *FoldedReceipt) int {
	// magic + image + exit + journal len/words + segments + checks + root
	n := 4 + 32 + 4 + 4 + 4*len(r.Stmt.Journal) + 4 + 4 + 8*gperm.DigestLen
	if r.Chain == nil || r.Chain.Stark == nil || r.Chain.Stark.Fri == nil {
		return n
	}
	// chain statement
	n += 8*2*gperm.Width + 4
	sp := r.Chain.Stark
	n += 4 + 32 + 4 // stark N, trace root, row count
	for i := range sp.Rows {
		n += 4 + 4 + 8*len(sp.Rows[i].Values) + 4 + 32*len(sp.Rows[i].Path)
	}
	fp := sp.Fri
	n += 4 + 32*len(fp.Roots)
	n += 4 + 8*len(fp.Final)
	n += 4
	for i := range fp.Queries {
		n += 4
		for j := range fp.Queries[i].Openings {
			n += 16 + 4 + 32*len(fp.Queries[i].Openings[j].Path)
		}
	}
	n += 4 + 4*len(fp.Positions)
	return n
}

// encodeStatement is the canonical statement encoding: both the wire
// body and the preimage of the statement digest the chain input
// derives from.
func encodeStatement(s Statement) []byte {
	w := &bwriter{}
	writeStatement(w, s)
	return w.buf
}

func writeStatement(w *bwriter, s Statement) {
	w.raw(s.Image[:])
	w.u32(s.ExitCode)
	w.u32(uint32(len(s.Journal)))
	for _, word := range s.Journal {
		w.u32(word)
	}
	w.u32(s.Segments)
	w.u32(s.InnerChecks)
	for _, e := range s.Root {
		w.elem(e)
	}
}

func readStatement(r *breader) Statement {
	var s Statement
	if r.need(32) {
		copy(s.Image[:], r.buf[r.off:])
		r.off += 32
	}
	s.ExitCode = r.u32()
	n := r.count(4)
	if r.err == nil && n > 0 {
		s.Journal = make([]uint32, n)
		for i := range s.Journal {
			s.Journal[i] = r.u32()
		}
	}
	s.Segments = r.u32()
	s.InnerChecks = r.u32()
	for i := range s.Root {
		s.Root[i] = r.elem()
	}
	return s
}

func writeChain(w *bwriter, p *fastagg.Proof) {
	for _, e := range p.Stmt.Input {
		w.elem(e)
	}
	for _, e := range p.Stmt.Output {
		w.elem(e)
	}
	w.u32(uint32(p.Stmt.N))
	sp := p.Stark
	w.u32(uint32(sp.N))
	w.hash(sp.TraceRoot)
	w.u32(uint32(len(sp.Rows)))
	for i := range sp.Rows {
		w.u32(uint32(sp.Rows[i].Pos))
		w.elems(sp.Rows[i].Values)
		w.hashes(sp.Rows[i].Path)
	}
	fp := sp.Fri
	w.hashes(fp.Roots)
	w.elems([]field.Elem(fp.Final))
	w.u32(uint32(len(fp.Queries)))
	for i := range fp.Queries {
		ops := fp.Queries[i].Openings
		w.u32(uint32(len(ops)))
		for j := range ops {
			w.elem(ops[j].Lo)
			w.elem(ops[j].Hi)
			w.hashes(ops[j].Path)
		}
	}
	w.u32(uint32(len(fp.Positions)))
	for _, pos := range fp.Positions {
		w.u32(uint32(pos))
	}
}

func readChain(r *breader) *fastagg.Proof {
	p := &fastagg.Proof{Stark: &stark.Proof{Fri: &fri.Proof{}}}
	for i := range p.Stmt.Input {
		p.Stmt.Input[i] = r.elem()
	}
	for i := range p.Stmt.Output {
		p.Stmt.Output[i] = r.elem()
	}
	p.Stmt.N = int(r.u32())
	sp := p.Stark
	sp.N = int(r.u32())
	sp.TraceRoot = r.hash()
	nRows := r.count(8)
	if r.err == nil {
		sp.Rows = make([]stark.RowOpening, nRows)
		for i := range sp.Rows {
			sp.Rows[i].Pos = int(r.u32())
			sp.Rows[i].Values = r.elemSlice()
			sp.Rows[i].Path = r.hashes()
		}
	}
	fp := sp.Fri
	fp.Roots = r.hashes()
	fp.Final = poly.Poly(r.elemSlice())
	nQ := r.count(4)
	if r.err == nil {
		fp.Queries = make([]fri.QueryProof, nQ)
		for i := range fp.Queries {
			nOps := r.count(16)
			if r.err != nil {
				break
			}
			fp.Queries[i].Openings = make([]fri.LayerOpening, nOps)
			for j := range fp.Queries[i].Openings {
				fp.Queries[i].Openings[j].Lo = r.elem()
				fp.Queries[i].Openings[j].Hi = r.elem()
				fp.Queries[i].Openings[j].Path = r.hashes()
			}
		}
	}
	nPos := r.count(4)
	if r.err == nil {
		fp.Positions = make([]int, nPos)
		for i := range fp.Positions {
			fp.Positions[i] = int(r.u32())
		}
	}
	return p
}

// UnmarshalFolded decodes a folded receipt. The decoder is total: any
// input either round-trips or returns an error, never panics — it is
// fuzzed alongside the other receipt decoders.
func UnmarshalFolded(data []byte) (*FoldedReceipt, error) {
	r := &breader{buf: data}
	if r.u32() != foldMagic {
		if r.err != nil {
			return nil, r.err
		}
		return nil, errors.New("fold: bad receipt magic")
	}
	stmt := readStatement(r)
	chain := readChain(r)
	if r.err != nil {
		return nil, fmt.Errorf("fold: decode: %w", r.err)
	}
	if r.off != len(data) {
		return nil, errors.New("fold: trailing bytes after receipt")
	}
	return &FoldedReceipt{Stmt: stmt, Chain: chain}, nil
}
