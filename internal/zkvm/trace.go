package zkvm

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"zkflow/internal/field"
	"zkflow/internal/hashk"
	"zkflow/internal/merkle"
	"zkflow/internal/par"
)

// Serialized sizes of committed records.
const (
	rowBytes  = 4 + 4*NumRegs + 4 + 4 + 4 // PC, regs, MemPtr, InPtr, JPtr
	memBytes  = 4 + 4 + 4 + 4 + 1         // Addr, Val, PrevVal, PrevTs, IsWrite
	prodBytes = 8                         // one field element
	saltBytes = 16
	// maxLeafBytes bounds the payload of every leaf the prover commits —
	// the widest is an exec leaf — and sizes commitBlock's stack scratch.
	maxLeafBytes = rowBytes + 4*(leafRecords-1)
)

// execLeafBytes is the payload size of an exec leaf of count
// rows: the first whole, a witness word for each of the rest.
func execLeafBytes(count int) int { return rowBytes + 4*(count-1) }

// No other leaf outgrows the exec leaf (the index would be negative).
var _ [maxLeafBytes - leafRecords*memBytes]struct{}

// encodeRowInto serialises a trace row into b (len >= rowBytes).
func encodeRowInto(b []byte, r *Row) {
	binary.LittleEndian.PutUint32(b[0:], r.PC)
	for i, v := range r.Regs {
		binary.LittleEndian.PutUint32(b[4+4*i:], v)
	}
	off := 4 + 4*NumRegs
	binary.LittleEndian.PutUint32(b[off:], r.MemPtr)
	binary.LittleEndian.PutUint32(b[off+4:], r.InPtr)
	binary.LittleEndian.PutUint32(b[off+8:], r.JPtr)
}

// decodeRow parses a serialised trace row (len(b) >= rowBytes).
func decodeRow(b []byte) Row {
	var r Row
	r.PC = binary.LittleEndian.Uint32(b[0:])
	for i := range r.Regs {
		r.Regs[i] = binary.LittleEndian.Uint32(b[4+4*i:])
	}
	off := 4 + 4*NumRegs
	r.MemPtr = binary.LittleEndian.Uint32(b[off:])
	r.InPtr = binary.LittleEndian.Uint32(b[off+4:])
	r.JPtr = binary.LittleEndian.Uint32(b[off+8:])
	return r
}

// encodeExecLeafInto serialises consecutive trace rows as one exec leaf — the first row whole, then one witness word per further
// row — into b (len >= maxLeafBytes) and returns the payload length.
func encodeExecLeafInto(b []byte, prog *Program, rows []Row) int {
	encodeRowInto(b, &rows[0])
	n := rowBytes
	for k := 1; k < len(rows); k++ {
		binary.LittleEndian.PutUint32(b[n:], witnessWord(prog, &rows[k-1], &rows[k]))
		n += 4
	}
	return n
}

// expandExecLeaf is the inverse: it decodes the head row of an exec
// leaf into rows[0] and derives each further row from its predecessor
// by running step under the leaf's witness word. A leaf is accepted only
// if it is exactly what encodeExecLeafInto writes for the rows it
// expands to: a step that traps or halts inside the leaf, or a word
// other than the one that step takes (zero if it takes none), is
// rejected. The cost is one step per row whatever the leaf holds.
func expandExecLeaf(prog *Program, b []byte, rows []Row) error {
	if len(rows) == 0 || len(b) != execLeafBytes(len(rows)) {
		return fmt.Errorf("zkvm: exec leaf of %d rows has %d bytes", len(rows), len(b))
	}
	rows[0] = decodeRow(b)
	var env witnessEnv
	for k := 1; k < len(rows); k++ {
		env.word = binary.LittleEndian.Uint32(b[rowBytes+4*(k-1):])
		halted, err := step(prog, &rows[k-1], &rows[k], &env)
		if err != nil {
			return fmt.Errorf("zkvm: exec leaf row %d: %v", k, err)
		}
		if halted {
			return fmt.Errorf("zkvm: exec leaf row %d follows a halt", k)
		}
		if want := witnessWord(prog, &rows[k-1], &rows[k]); env.word != want {
			return fmt.Errorf("zkvm: exec leaf row %d: witness word %d, the step takes %d", k, env.word, want)
		}
	}
	return nil
}

// encodeMemEntryInto serialises a memory-log entry into b
// (len >= memBytes).
func encodeMemEntryInto(b []byte, e *MemEntry) {
	binary.LittleEndian.PutUint32(b[0:], e.Addr)
	binary.LittleEndian.PutUint32(b[4:], e.Val)
	binary.LittleEndian.PutUint32(b[8:], e.PrevVal)
	binary.LittleEndian.PutUint32(b[12:], e.PrevTs)
	if e.IsWrite {
		b[16] = 1
	} else {
		b[16] = 0
	}
}

// decodeMemEntry parses a serialised memory-log entry. A load leaves
// its word as it found it, so a load whose value is not the word's
// previous value is no entry of any log, and is rejected wherever it
// is opened.
func decodeMemEntry(b []byte) (MemEntry, error) {
	var e MemEntry
	if len(b) != memBytes {
		return e, fmt.Errorf("zkvm: mem leaf has %d bytes, want %d", len(b), memBytes)
	}
	if b[16] > 1 {
		return e, fmt.Errorf("zkvm: mem leaf flag byte %d", b[16])
	}
	e.Addr = binary.LittleEndian.Uint32(b[0:])
	e.Val = binary.LittleEndian.Uint32(b[4:])
	e.PrevVal = binary.LittleEndian.Uint32(b[8:])
	e.PrevTs = binary.LittleEndian.Uint32(b[12:])
	e.IsWrite = b[16] == 1
	if !e.IsWrite && e.Val != e.PrevVal {
		return e, fmt.Errorf("zkvm: load of %d reads %d, the word held %d", e.Addr, e.Val, e.PrevVal)
	}
	return e, nil
}

// encodeProdInto serialises a running-product element into b
// (len >= prodBytes).
func encodeProdInto(b []byte, p field.Elem) {
	binary.LittleEndian.PutUint64(b, uint64(p))
}

// decodeProd parses a running-product element.
func decodeProd(b []byte) (field.Elem, error) {
	if len(b) != prodBytes {
		return 0, fmt.Errorf("zkvm: product leaf has %d bytes, want %d", len(b), prodBytes)
	}
	v := binary.LittleEndian.Uint64(b)
	if v >= field.Modulus {
		return 0, fmt.Errorf("zkvm: non-canonical product element")
	}
	return field.Elem(v), nil
}

// saltedLeafHash is the committed hash of (salt || payload), hashed
// without materializing the concatenation (zero allocations for every
// committed leaf shape in this package).
func saltedLeafHash(salt [saltBytes]byte, payload []byte) merkle.Hash {
	return hashk.Leaf2[merkle.Hash](salt[:], payload)
}

// saltedLeafHash2 is saltedLeafHash of two openings whose payloads have
// one length, hashed at once: the verifier's side of commitBlock.
func saltedLeafHash2(x, y *Opening) (merkle.Hash, merkle.Hash) {
	var a, b hashk.Msg
	n := saltedLeafMsg(&a, x.Salt, x.Data)
	saltedLeafMsg(&b, y.Salt, y.Data)
	ha, hb := hashk.SumMsg2(&a, &b, n)
	return ha, hb
}

// saltedLeafMsg writes the salted leaf message 0x00 || salt || payload
// into m and returns its length.
func saltedLeafMsg(m *hashk.Msg, salt [saltBytes]byte, payload []byte) int {
	m[0] = hashk.LeafPrefix
	copy(m[1:], salt[:])
	return 1 + saltBytes + copy(m[1+saltBytes:], payload)
}

// Tree labels for salt domain separation. A segment's trees are
// salted under its own seed, the boundary images under theirs; a final
// segment's final table is an image tree under the segment's seed.
const (
	treeExec byte = iota + 1
	treeMem
	treeLogProd
	treeFinalProd
	treeInitProd
	treeImage
)

// challenges are the memory argument's Fiat–Shamir challenges: alpha
// (and its square) weighs the fields of a tuple, gamma shifts it.
type challenges struct{ alpha, alpha2, gamma field.Elem }

func newChallenges(alpha, gamma field.Elem) challenges {
	return challenges{alpha, field.Mul(alpha, alpha), gamma}
}

// factor is a memory tuple (addr, val, ts)'s factor in the multiset
// products: gamma - (addr + α·val + α²·ts), or one for the virtual
// tuple (addr, 0, 0) — a word never written reads as zero at time
// zero, and that tuple is dropped from every multiset, so fresh memory
// needs no init record. A power of alpha is below 2^64 and each word
// of the tuple below 2^32, so the sum is below 2^97: it is accumulated
// in 128 bits and reduced once.
func (c *challenges) factor(addr, val, ts uint32) field.Elem {
	if val == 0 && ts == 0 {
		return field.One
	}
	hi, lo := bits.Mul64(uint64(c.alpha), uint64(val))
	h, l := bits.Mul64(uint64(c.alpha2), uint64(ts))
	lo, k := bits.Add64(lo, l, 0)
	hi += h + k
	lo, k = bits.Add64(lo, uint64(addr), 0)
	return field.Sub(c.gamma, field.Reduce128(hi+k, lo))
}

// read and write are the factors of the tuples log entry e at position
// i reads, (Addr, PrevVal, PrevTs), and writes, (Addr, Val, i+1).
func (c *challenges) read(e *MemEntry) field.Elem { return c.factor(e.Addr, e.PrevVal, e.PrevTs) }
func (c *challenges) write(e *MemEntry, i int) field.Elem {
	return c.factor(e.Addr, e.Val, uint32(i+1))
}

// logColumn returns the log's ratio column under ch: col[i] =
// prod_{j<=i} write_j/read_j. It is scanned on a crew of width workers,
// the log in as many chunks: each chunk's products of its write and its
// read factors first, then a serial pass over the chunk totals with one
// inversion a chunk, then each chunk backwards, multiplying in the
// inverse of its read products one factor at a time — four
// multiplications an entry. Field multiplication is exactly
// associative, so the column is the same at any width. It comes from
// the slab pool; sealTables.release returns it.
func logColumn(log []MemEntry, ch *challenges, width int) []field.Elem {
	n := len(log)
	col, reads := getProdSlab(n), getProdSlab(n)
	defer putProdSlab(reads)
	chunks := width
	if n < 2*width {
		chunks = 1
	}
	size := (n + chunks - 1) / chunks
	bounds := func(c int) (int, int) { return c * size, min((c+1)*size, n) }
	// A chunk's write product, and its read product until the serial
	// pass makes scale[c] the ratio of every chunk ahead of c over chunk
	// c's read product: col[i] of chunk c is then scale[c] times its
	// write products up to i times its read factors after i.
	writes, scale := make([]field.Elem, chunks), make([]field.Elem, chunks)
	par.Each(width, chunks, func(c int) {
		lo, hi := bounds(c)
		w, r := field.One, field.One
		for i := lo; i < hi; i++ {
			reads[i] = ch.read(&log[i])
			w = field.Mul(w, ch.write(&log[i], i))
			r = field.Mul(r, reads[i])
			col[i] = w
		}
		writes[c], scale[c] = w, r
	})
	before := field.One
	for c := range scale {
		scale[c] = field.Mul(before, field.Inv(scale[c]))
		before = field.Mul(scale[c], writes[c])
	}
	par.Each(width, chunks, func(c int) {
		lo, hi := bounds(c)
		x := scale[c]
		for i := hi - 1; i >= lo; i-- {
			col[i] = field.Mul(col[i], x)
			x = field.Mul(x, reads[i])
		}
	})
	return col
}

// imageColumn returns the running products of the factors of img's
// records — as the final table (under their times) or, with atZero, as
// the entry image read at time zero — serially: commitTrace scans both
// image columns as the lead task of the crew that hashes the log's
// column beside them. The column comes from the slab pool.
func imageColumn(img []imageRecord, ch *challenges, atZero bool) []field.Elem {
	col := getProdSlab(len(img))
	acc := field.One
	for i := range img {
		ts := img[i].Ts
		if atZero {
			ts = 0
		}
		acc = field.Mul(acc, ch.factor(img[i].Addr, img[i].Val, ts))
		col[i] = acc
	}
	return col
}

// prodSlabPool recycles the product columns and their scratch
// (*[]field.Elem): two 8-byte elements per memory-log entry and one
// per image record a seal would otherwise allocate, and zero, on the
// grand product's path.
var prodSlabPool sync.Pool

// getProdSlab returns a slab of n elements whose contents are
// arbitrary: productColumns writes every element before reading it.
func getProdSlab(n int) []field.Elem {
	if v := prodSlabPool.Get(); v != nil {
		if s := *v.(*[]field.Elem); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]field.Elem, n)
}

func putProdSlab(s []field.Elem) {
	if cap(s) > 0 {
		prodSlabPool.Put(&s)
	}
}
