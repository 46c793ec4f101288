package zkvm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"zkflow/internal/merkle"
)

// leafRecords is B, the number of consecutive records of a table that
// one committed Merkle leaf holds: leaf j of a table is
// SHA-256(0x00 || salt_j || rec[Bj] || … || rec[Bj+B-1]), the last leaf
// short — and of the exec table, SHA-256(0x00 || salt_j || row[Bj] ||
// w[Bj] || … || w[Bj+B-2]), w[i] being the witness word of step i
// (witnessWord): the rows after the first follow from it and the
// program. It is a constant of the seal format, not an option: 4 is the
// largest block at which opening one record of the 17-byte tables costs
// no more bytes than it did at one record per leaf (51 more payload
// bytes against two 32-byte path levels fewer), and under per-tree
// multiproofs still the block with the smallest receipt (DESIGN.md §8,
// "Why four").
const leafRecords = 4

// The magic of a receipt's encoding (format v6, DESIGN.md §8) and the
// label its segments' statements open their transcripts with.
// "zkf1"–"zkfd" and the request magics "zkw2"–"zkw6" are retired and
// must never be assigned again, so that no byte string ever read as
// one of them can be read as anything else: "zkf1"–"zkf3" tagged
// format v1 (one record per leaf) and "zkf5"–"zkf7" format v2 (exec
// leaves of whole rows), which no code decodes any more; "zkf4"
// (0x7a6b6634) tagged the folded receipt, a prover-trusted binding
// rather than a proof; "zkf8" tagged a run sealed whole under its own
// statement, which is now a one-segment receipt; "zkf9" (0x7a6b6639)
// tagged format v3, whose Merkle nodes were SHA-256(0x01 || l || r),
// two compressions, where a v4 node is one; "zkfa" (0x7a6b6661)
// framed the prover farm's wire and "zkw2"–"zkw6" (0x7a6b7736 the
// last) opened the proving request inside a job frame, until the farm
// was deleted; "zkfb" (0x7a6b6662) tagged a standalone segment
// receipt, which is now a one-segment receipt; "zkfc" (0x7a6b6663)
// tagged format v4, whose every opening carried its own
// authentication path, where a v5 segment carries one multiproof per
// tree; "zkfd" (0x7a6b6664) tagged format v5, whose memory argument
// committed an address-sorted copy of the log, where v6 checks memory
// offline against the final table and the boundary images.
const (
	magicReceipt = 0x7a6b6665 // "zkfe"

	segLabel = "zkvm-seg-v6"
)

// The trees of a segment, in the order their multiproofs follow its
// checks on the wire: the execution rows, the memory log and its
// product column, the final table — a non-final segment's exit image —
// and its column, the entry image and its column. The multiproof of a
// tree no check opens (the log of a segment with no memory access, the
// entry image of segment 0) is empty.
const (
	proofExec = iota
	proofMem
	proofLogProd
	proofFinal
	proofFinalProd
	proofEntry
	proofInitProd
	numTrees
)

var treeNames = [numTrees]string{"exec", "mem", "logprod", "final", "finalprod", "entry image", "initprod"}

// Opening is one leaf revealed by the seal: its index in the tree, the
// payload (the leaf's records, concatenated) and the blinding salt.
// The segment's multiproof for the tree authenticates it.
type Opening struct {
	Index int
	Salt  [saltBytes]byte
	Data  []byte
}

// size returns the encoded byte size of the opening.
func (o *Opening) size() int {
	return 4 + saltBytes + 4 + len(o.Data)
}

func openingsSize(os []Opening) int {
	n := 0
	for i := range os {
		n += os[i].size()
	}
	return n
}

// column is one committed table as the verifier sees it: the root, the
// number of records and their size. leafRecords of them share a leaf.
type column struct {
	root     merkle.Hash
	n        int
	recBytes int
	// witnessed marks the exec column. Its leaf carries the first of its
	// rows whole and, for each further row, the one 32-bit word the step
	// into it takes from outside the machine state (witnessWord); rows
	// expands it by running the program.
	witnessed bool
	// opened collects every leaf the column hands out, for authenticate.
	opened *[]*Opening
}

// leafBytes is the payload size of a leaf of count records.
func (c column) leafBytes(count int) int {
	if c.witnessed {
		return execLeafBytes(count)
	}
	return count * c.recBytes
}

// count is the number of records leaf idx holds: leafRecords of them,
// fewer only in the last leaf.
func (c column) count(idx int) int { return min(leafRecords, c.n-idx*leafRecords) }

// leaves is the number of leaves of the column's tree.
func (c column) leaves() int { return (c.n + leafRecords - 1) / leafRecords }

// leaf accepts o as leaf idx of the column and records it for
// authenticate. Everything about the leaf's shape follows from the
// committed record count: the tree has ceil(n/leafRecords) leaves, and
// the payload is exactly the leaf's records.
func (c column) leaf(o *Opening, idx int) error {
	if leaves := c.leaves(); idx < 0 || idx >= leaves {
		return fmt.Errorf("leaf %d outside a %d-leaf tree", idx, leaves)
	}
	if o.Index != idx {
		return fmt.Errorf("opening at leaf %d, want %d", o.Index, idx)
	}
	if want := c.leafBytes(c.count(idx)); len(o.Data) != want {
		return fmt.Errorf("leaf %d payload %d bytes, want %d", idx, len(o.Data), want)
	}
	*c.opened = append(*c.opened, o)
	return nil
}

// authenticate checks every leaf the column has handed out against p,
// its tree's multiproof: the distinct leaves, in index order, under the
// root of a tree as deep as ceil(n/leafRecords) leaves need. A leaf
// opened by several checks must carry the same salt and payload each
// time, or a check could read a payload the multiproof never
// authenticated.
func (c column) authenticate(p merkle.MultiProof) error {
	opened := *c.opened
	// Leaf index (below 2^30, leaf already checked it) over position.
	order := make([]uint64, len(opened))
	for i, o := range opened {
		order[i] = uint64(o.Index)<<32 | uint64(i)
	}
	slices.Sort(order)
	distinct := make([]*Opening, 0, len(opened))
	for _, k := range order {
		o := opened[uint32(k)]
		if n := len(distinct); n > 0 && distinct[n-1].Index == o.Index {
			if prev := distinct[n-1]; o.Salt != prev.Salt || !bytes.Equal(o.Data, prev.Data) {
				return fmt.Errorf("leaf %d opened twice with different contents", o.Index)
			}
			continue
		}
		distinct = append(distinct, o)
	}
	leaves := make([]merkle.Leaf, len(distinct))
	for i := 0; i < len(distinct); i++ {
		leaves[i].Index = distinct[i].Index
		if i+1 < len(distinct) && len(distinct[i].Data) == len(distinct[i+1].Data) {
			leaves[i+1].Index = distinct[i+1].Index
			leaves[i].Hash, leaves[i+1].Hash = saltedLeafHash2(distinct[i], distinct[i+1])
			i++
		} else {
			leaves[i].Hash = saltedLeafHash(distinct[i].Salt, distinct[i].Data)
		}
	}
	return merkle.VerifyMulti(c.root, bits.Len(uint(c.leaves()-1)), leaves, p)
}

// holding accepts o as the leaf holding record i, checked in place.
func (c column) holding(o *Opening, i int) error {
	if i < 0 || i >= c.n {
		return fmt.Errorf("records [%d,%d) outside a %d-record table", i, i+1, c.n)
	}
	return c.leaf(o, i/leafRecords)
}

// record accepts o as the leaf holding record i and returns that
// record's bytes.
func (c column) record(o *Opening, i int) ([]byte, error) {
	if err := c.holding(o, i); err != nil {
		return nil, err
	}
	off := i % leafRecords * c.recBytes
	return o.Data[off : off+c.recBytes], nil
}

// cover accepts span as the leaves holding records [lo, hi) —
// each distinct leaf exactly once, in order, so a run inside one block
// is one opening and one that straddles a block boundary is two — and
// returns the index of the first. An extra or a missing opening is an
// error, never ignored.
func (c column) cover(span []Opening, lo, hi int) (first int, err error) {
	if lo < 0 || hi < lo || hi > c.n {
		return 0, fmt.Errorf("records [%d,%d) outside a %d-record table", lo, hi, c.n)
	}
	first, want := lo/leafRecords, 0
	if hi > lo {
		want = (hi-1)/leafRecords - first + 1
	}
	if len(span) != want {
		return 0, fmt.Errorf("%d openings for records [%d,%d), want %d", len(span), lo, hi, want)
	}
	for k := range span {
		if err := c.leaf(&span[k], first+k); err != nil {
			return 0, err
		}
	}
	return first, nil
}

// records accepts span as the leaves holding records [lo, hi)
// (cover) and appends the hi-lo records' bytes to dst, which the caller
// owns: a pair reads into a two-slot array on its stack.
func (c column) records(dst [][]byte, span []Opening, lo, hi int) ([][]byte, error) {
	first, err := c.cover(span, lo, hi)
	if err != nil {
		return dst, err
	}
	for i := lo; i < hi; i++ {
		off := i % leafRecords * c.recBytes
		dst = append(dst, span[i/leafRecords-first].Data[off:off+c.recBytes])
	}
	return dst, nil
}

// rows accepts span as the leaves holding rows [lo, hi) of the
// exec column (cover) and appends the rows to dst, which the caller
// owns. A leaf is expanded whole, whichever of its rows are asked for:
// one that does not expand to exactly its rows is not a leaf of any
// trace.
func (c column) rows(dst []Row, prog *Program, span []Opening, lo, hi int) ([]Row, error) {
	first, err := c.cover(span, lo, hi)
	if err != nil {
		return dst, err
	}
	var leaf [leafRecords]Row
	for k := range span {
		base := (first + k) * leafRecords
		got, err := c.expand(prog, &span[k], first+k, &leaf)
		if err != nil {
			return dst, err
		}
		dst = append(dst, got[max(lo, base)-base:min(hi, base+len(got))-base]...)
	}
	return dst, nil
}

// row is rows' one-leaf case: it accepts o as the leaf holding row i of
// the exec column, checked in place, and returns that row.
func (c column) row(prog *Program, o *Opening, i int) (Row, error) {
	if err := c.holding(o, i); err != nil {
		return Row{}, err
	}
	var leaf [leafRecords]Row
	got, err := c.expand(prog, o, i/leafRecords, &leaf)
	if err != nil {
		return Row{}, err
	}
	return got[i%leafRecords], nil
}

// expand runs o, leaf idx of the exec column, into its rows in leaf.
func (c column) expand(prog *Program, o *Opening, idx int, leaf *[leafRecords]Row) ([]Row, error) {
	got := leaf[:c.count(idx)]
	if err := expandExecLeaf(prog, o.Data, got); err != nil {
		return nil, fmt.Errorf("leaf %d: %v", idx, err)
	}
	return got, nil
}

// ExecCheck is a sampled execution-transition check of rows i and i+1.
type ExecCheck struct {
	// Rows are the leaves holding rows i and i+1: one, or two when the
	// pair straddles a block.
	Rows []Opening
	// Mem are the leaves holding the memory-log entries the step
	// consumed, each leaf once.
	Mem []Opening
}

// ProdCheck is a sampled step i of a product column over a table: the
// column's products i and i+1 and the table's record i+1, whose factor
// is the step. The mem family runs over the log's ratio column, the
// init family over the entry image's.
type ProdCheck struct {
	Record Opening   // the leaf holding record i+1
	Prods  []Opening // the leaves holding products i and i+1
}

// FinalCheck is a sampled adjacency j of the final table: records j
// and j+1 are in strictly increasing address order, and products j and
// j+1 of its column differ by record j+1's factor.
type FinalCheck struct {
	Records []Opening // the leaves holding records j and j+1
	Prods   []Opening // the leaves holding products j and j+1
}

// Ends are the always-opened leaves of one table of the memory argument
// and its product column: the leaves holding the table's first record
// and the column's first and last products. They are present iff the
// table has records.
type Ends struct {
	Record, First, Last Opening
}

func (e *Ends) size() int { return e.Record.size() + e.First.size() + e.Last.size() }

// wireEnds returns the ends the seal carries, in wire order: the log's,
// the final table's and the entry image's, each only if its table has
// records; nInit is the entry image's record count.
func (s *Seal) wireEnds(nInit uint32) []*Ends {
	var out []*Ends
	for _, e := range [...]struct {
		n    uint32
		ends *Ends
	}{{s.NumMem, &s.Log}, {s.NumFinal, &s.Final}, {nInit, &s.Init}} {
		if e.n > 0 {
			out = append(out, e.ends)
		}
	}
	return out
}

// Seal is the cryptographic proof of correct execution of one segment:
// tree roots, always-opened boundary leaves, and the Fiat–Shamir-sampled
// spot checks, whose leaves the segment's multiproofs authenticate. Its
// size is polylogarithmic in the trace length (k openings and their
// log-depth multiproofs) — see EXPERIMENTS.md for how this compares
// with the paper's constant-size Groth16-wrapped proofs.
type Seal struct {
	NumRows uint32
	NumMem  uint32
	// NumFinal and FinalRoot are the final table's: a non-final
	// segment's exit image, a final segment's own.
	NumFinal uint32

	ExecRoot      merkle.Hash
	MemRoot       merkle.Hash
	FinalRoot     merkle.Hash
	LogProdRoot   merkle.Hash
	FinalProdRoot merkle.Hash
	InitProdRoot  merkle.Hash

	// The leaves holding the first and the last row.
	FirstRow Opening
	LastRow  Opening

	// The ends of the log, the final table and the entry image.
	Log, Final, Init Ends

	ExecChecks  []ExecCheck
	MemChecks   []ProdCheck
	FinalChecks []FinalCheck
	InitChecks  []ProdCheck
}

// Size returns the encoded seal size in bytes; nInit is the entry
// image's record count, which says whether Init is on the wire.
func (s *Seal) Size(nInit uint32) int {
	n := 12 + 6*32 + s.FirstRow.size() + s.LastRow.size()
	for _, e := range s.wireEnds(nInit) {
		n += e.size()
	}
	n += 16 // check counts
	// Each adjacent pair carries a one-byte flag (bwriter.span).
	for i := range s.ExecChecks {
		c := &s.ExecChecks[i]
		n += 1 + openingsSize(c.Rows) + 4 + openingsSize(c.Mem)
	}
	for _, cs := range [][]ProdCheck{s.MemChecks, s.InitChecks} {
		for i := range cs {
			n += cs[i].Record.size() + 1 + openingsSize(cs[i].Prods)
		}
	}
	for i := range s.FinalChecks {
		c := &s.FinalChecks[i]
		n += 2 + openingsSize(c.Records) + openingsSize(c.Prods)
	}
	return n
}

// --- binary encoding ---

// bwriter appends the little-endian encoding. The only thing that can
// go wrong is a receipt assembled by hand with a span the encoding
// cannot carry; err keeps the first such.
type bwriter struct {
	buf []byte
	err error
}

func (w *bwriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *bwriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *bwriter) raw(b []byte) { w.buf = append(w.buf, b...) }
func (w *bwriter) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.raw(b)
}
func (w *bwriter) hash(h merkle.Hash) { w.raw(h[:]) }
func (w *bwriter) words(ws []uint32) {
	w.u32(uint32(len(ws)))
	for _, v := range ws {
		w.u32(v)
	}
}
func (w *bwriter) flag(b bool) {
	if b {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *bwriter) opening(o *Opening) {
	w.u32(uint32(o.Index))
	w.raw(o.Salt[:])
	w.bytes(o.Data)
}

// multiproof writes a counted run of nodes.
func (w *bwriter) multiproof(p *merkle.MultiProof) {
	w.u32(uint32(len(p.Nodes)))
	for _, h := range p.Nodes {
		w.hash(h)
	}
}

// openings writes a counted run of openings.
func (w *bwriter) openings(os []Opening) {
	w.u32(uint32(len(os)))
	for i := range os {
		w.opening(&os[i])
	}
}

// span writes the one or two openings of an adjacent pair: the first,
// a flag, and the second if the flag is set.
func (w *bwriter) span(os []Opening) {
	if len(os) < 1 || len(os) > 2 {
		if w.err == nil {
			w.err = fmt.Errorf("zkvm: cannot encode a pair of %d openings", len(os))
		}
		return
	}
	w.opening(&os[0])
	w.flag(len(os) == 2)
	if len(os) == 2 {
		w.opening(&os[1])
	}
}

type breader struct {
	buf []byte
	off int
	err error
}

var errTruncated = errors.New("zkvm: truncated receipt")

func (r *breader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n > len(r.buf)-r.off {
		r.err = errTruncated
		return false
	}
	return true
}

func (r *breader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *breader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// count reads the length of a run of items of at least itemBytes
// each, so a hostile count cannot make the decoder allocate more than
// the bytes that are actually left could fill.
func (r *breader) count(itemBytes int) int {
	n := r.u32()
	if r.err == nil && uint64(n)*uint64(itemBytes) > uint64(len(r.buf)-r.off) {
		r.err = errTruncated
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *breader) raw(n int) []byte {
	if !r.need(n) {
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *breader) hash() merkle.Hash {
	var h merkle.Hash
	copy(h[:], r.raw(32))
	return h
}

func (r *breader) words() []uint32 {
	ws := make([]uint32, r.count(4))
	for i := range ws {
		ws[i] = r.u32()
	}
	return ws
}

func (r *breader) flag() bool {
	v := r.u8()
	if v > 1 && r.err == nil {
		r.err = errors.New("zkvm: bad flag byte")
	}
	return v == 1
}

// minOpeningBytes is the encoding of an opening with no payload.
const minOpeningBytes = 4 + saltBytes + 4

func (r *breader) opening() Opening {
	var o Opening
	o.Index = int(r.u32())
	copy(o.Salt[:], r.raw(saltBytes))
	o.Data = append([]byte(nil), r.raw(r.count(1))...)
	return o
}

// multiproof reads what bwriter.multiproof wrote.
func (r *breader) multiproof() merkle.MultiProof {
	p := merkle.MultiProof{Nodes: make([]merkle.Hash, r.count(32))}
	for i := range p.Nodes {
		p.Nodes[i] = r.hash()
	}
	return p
}

func (r *breader) openings() []Opening {
	os := make([]Opening, r.count(minOpeningBytes))
	for i := range os {
		os[i] = r.opening()
	}
	return os
}

// span reads what bwriter.span wrote.
func (r *breader) span() []Opening {
	os := []Opening{r.opening()}
	if r.flag() {
		os = append(os, r.opening())
	}
	return os
}

// writeSeal appends a seal whose entry image has nInit records.
func writeSeal(w *bwriter, s *Seal, nInit uint32) {
	w.u32(s.NumRows)
	w.u32(s.NumMem)
	w.u32(s.NumFinal)
	for _, h := range []merkle.Hash{s.ExecRoot, s.MemRoot, s.FinalRoot, s.LogProdRoot, s.FinalProdRoot, s.InitProdRoot} {
		w.hash(h)
	}
	w.opening(&s.FirstRow)
	w.opening(&s.LastRow)
	for _, e := range s.wireEnds(nInit) {
		w.opening(&e.Record)
		w.opening(&e.First)
		w.opening(&e.Last)
	}
	w.u32(uint32(len(s.ExecChecks)))
	for i := range s.ExecChecks {
		c := &s.ExecChecks[i]
		w.span(c.Rows)
		w.openings(c.Mem)
	}
	w.prodChecks(s.MemChecks)
	w.u32(uint32(len(s.FinalChecks)))
	for i := range s.FinalChecks {
		c := &s.FinalChecks[i]
		w.span(c.Records)
		w.span(c.Prods)
	}
	w.prodChecks(s.InitChecks)
}

func (w *bwriter) prodChecks(cs []ProdCheck) {
	w.u32(uint32(len(cs)))
	for i := range cs {
		w.opening(&cs[i].Record)
		w.span(cs[i].Prods)
	}
}

// readSeal decodes what writeSeal wrote.
func readSeal(rd *breader, nInit uint32) Seal {
	var s Seal
	s.NumRows = rd.u32()
	s.NumMem = rd.u32()
	s.NumFinal = rd.u32()
	for _, h := range []*merkle.Hash{&s.ExecRoot, &s.MemRoot, &s.FinalRoot, &s.LogProdRoot, &s.FinalProdRoot, &s.InitProdRoot} {
		*h = rd.hash()
	}
	s.FirstRow = rd.opening()
	s.LastRow = rd.opening()
	for _, e := range s.wireEnds(nInit) {
		e.Record = rd.opening()
		e.First = rd.opening()
		e.Last = rd.opening()
	}
	s.ExecChecks = make([]ExecCheck, rd.count(minOpeningBytes))
	for i := range s.ExecChecks {
		c := &s.ExecChecks[i]
		c.Rows = rd.span()
		c.Mem = rd.openings()
	}
	s.MemChecks = rd.prodChecks()
	s.FinalChecks = make([]FinalCheck, rd.count(minOpeningBytes))
	for i := range s.FinalChecks {
		c := &s.FinalChecks[i]
		c.Records = rd.span()
		c.Prods = rd.span()
	}
	s.InitChecks = rd.prodChecks()
	return s
}

func (r *breader) prodChecks() []ProdCheck {
	cs := make([]ProdCheck, r.count(minOpeningBytes))
	for i := range cs {
		cs[i].Record = r.opening()
		cs[i].Prods = r.span()
	}
	return cs
}
