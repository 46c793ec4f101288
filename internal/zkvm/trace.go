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
	memBytes  = 4 + 4 + 4 + 4 + 1         // Addr, Val, Seq, Step, IsWrite
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
	binary.LittleEndian.PutUint32(b[8:], e.Seq)
	binary.LittleEndian.PutUint32(b[12:], e.Step)
	if e.IsWrite {
		b[16] = 1
	} else {
		b[16] = 0
	}
}

// decodeMemEntry parses a serialised memory-log entry.
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
	e.Seq = binary.LittleEndian.Uint32(b[8:])
	e.Step = binary.LittleEndian.Uint32(b[12:])
	e.IsWrite = b[16] == 1
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

// Tree labels for salt domain separation.
const (
	treeExec byte = iota + 1
	treeMemProg
	treeMemSort
	treeProdProg
	treeProdSort
)

// sortedMemLog returns the memory log ordered by (Addr, Seq) — the
// layout the memory-consistency rules are checked on. The log arrives
// in program order, Seq == index, so a stable sort on Addr alone gives
// that strict total order: an LSD radix sort, one byte of the address
// per pass, O(n). A pass whose byte is the same in every address moves
// nothing and is skipped (guest memory is a few dense regions, so the
// high bytes usually are). The result comes from the slab pool; the
// caller releases it with putMemSlab once the openings are done.
func sortedMemLog(log []MemEntry) []MemEntry {
	n := len(log)
	var counts [4][256]int
	for i := range log {
		a := log[i].Addr
		counts[0][byte(a)]++
		counts[1][byte(a>>8)]++
		counts[2][byte(a>>16)]++
		counts[3][byte(a>>24)]++
	}
	src, dst := getMemSlabSized(n)[:n], getMemSlabSized(n)[:n]
	copy(src, log)
	for pass := range counts {
		c, shift := &counts[pass], 8*uint(pass)
		if n == 0 || c[byte(log[0].Addr>>shift)] == n {
			continue
		}
		next := 0
		for d, k := range c {
			c[d], next = next, next+k
		}
		for i := range src {
			d := byte(src[i].Addr >> shift)
			dst[c[d]] = src[i]
			c[d]++
		}
		src, dst = dst, src
	}
	putMemSlab(dst)
	return src
}

// fingerprint maps a memory entry to a field element under the
// Fiat–Shamir challenge alpha: addr + α·val + α²·seq + α³·step +
// α⁴·isWrite. Two logs are multiset-equal iff the products of
// (gamma - fingerprint) agree (w.h.p. over alpha, gamma).
func fingerprint(e *MemEntry, alpha field.Elem) field.Elem {
	p := alphaPowers(alpha)
	return fingerprintAt(e, &p)
}

// alphaPowers returns α, α², α³, α⁴ — computed once per seal by the
// prover, whose productColumns fingerprints every log entry.
func alphaPowers(alpha field.Elem) [4]field.Elem {
	a2 := field.Mul(alpha, alpha)
	return [4]field.Elem{alpha, a2, field.Mul(a2, alpha), field.Mul(a2, a2)}
}

// fingerprintAt is fingerprint given the powers of alpha. A power is
// below 2^64 and a word below 2^32, so each product is below 2^96 and
// the whole sum below 2^98: it is accumulated in 128 bits and reduced
// once.
func fingerprintAt(e *MemEntry, p *[4]field.Elem) field.Elem {
	hi, lo := bits.Mul64(uint64(p[0]), uint64(e.Val))
	h, l := bits.Mul64(uint64(p[1]), uint64(e.Seq))
	lo, c := bits.Add64(lo, l, 0)
	hi += h + c
	h, l = bits.Mul64(uint64(p[2]), uint64(e.Step))
	lo, c = bits.Add64(lo, l, 0)
	hi += h + c
	w := uint64(e.Addr) // + α⁴ stays below 2^64: α⁴ < p = 2^64 - 2^32 + 1
	if e.IsWrite {
		w += uint64(p[3])
	}
	lo, c = bits.Add64(lo, w, 0)
	return field.Reduce128(hi+c, lo)
}

// productColumns returns the two running-product columns of the
// memory check under (alpha, gamma): prog[i] = prod_{j<=i} d[j] over
// the program-order log and sort[i] = prod_{j<=i} d[sorted[j].Seq]
// over the address-ordered one, where d[j] = gamma - f(log[j]). An
// entry's Seq is its program-order index (sortedMemLog's contract), so
// every entry is fingerprinted once and the address order is a gather.
// Each column is a three-phase parallel prefix scan on one crew of
// width workers: the chunks' local products (the program order's as
// its chunks are fingerprinted, the address order's once every d is
// written), then each chunk rescaled by the product of the (few) chunk
// totals ahead of it, both columns' chunks in one pass. Field
// multiplication is exactly associative, so the columns are
// bit-identical to the serial scan at any width. The columns come
// from the slab pool; sealTables.release returns them.
func productColumns(log, sorted []MemEntry, alpha, gamma field.Elem, width int) (prog, sort []field.Elem) {
	n := len(log)
	d := getProdSlab(n)
	defer putProdSlab(d)
	cols := [2][]field.Elem{getProdSlab(n), getProdSlab(n)}
	chunks := width
	if n < 2*width {
		chunks = 1
	}
	chunk := (n + chunks - 1) / chunks
	bounds := func(c int) (int, int) { return c * chunk, min((c+1)*chunk, n) }
	totals := [2][]field.Elem{make([]field.Elem, chunks), make([]field.Elem, chunks)}
	powers := alphaPowers(alpha)
	par.Each(width, chunks, func(c int) {
		lo, hi := bounds(c)
		acc, out := field.One, cols[0]
		for i := lo; i < hi; i++ {
			d[i] = field.Sub(gamma, fingerprintAt(&log[i], &powers))
			acc = field.Mul(acc, d[i])
			out[i] = acc
		}
		totals[0][c] = acc
	})
	par.Each(width, chunks, func(c int) {
		lo, hi := bounds(c)
		acc, out := field.One, cols[1]
		for i := lo; i < hi; i++ {
			acc = field.Mul(acc, d[sorted[i].Seq])
			out[i] = acc
		}
		totals[1][c] = acc
	})
	par.Each(width, 2*chunks, func(k int) {
		col, c := k%2, k/2
		before := field.One // product of everything ahead of chunk c
		for _, t := range totals[col][:c] {
			before = field.Mul(before, t)
		}
		if before == field.One {
			return
		}
		lo, hi := bounds(c)
		for i := lo; i < hi; i++ {
			cols[col][i] = field.Mul(cols[col][i], before)
		}
	})
	return cols[0], cols[1]
}

// prodSlabPool recycles the product columns and their scratch
// (*[]field.Elem): three 8-byte elements per memory-log entry a seal
// would otherwise allocate, and zero, on the grand product's path.
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
