package zkvm

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"zkflow/internal/field"
	"zkflow/internal/hashk"
	"zkflow/internal/merkle"
	"zkflow/internal/par"
	"zkflow/internal/transcript"
)

// salter derives the per-leaf blinding salts. Each committed leaf is
// salted so that unopened leaves reveal nothing about the trace
// (hiding commitment under SHA-256). The salts are a prover-private
// PRF of the leaf's position: AES-256 keyed by the 32-byte salt seed,
// evaluated on the counter block (tree label || 0^7 || big-endian leaf
// index) — AES-CTR, so consecutive leaves of a tree are consecutive
// keystream blocks. To anyone without the seed the salts are
// independent uniform strings, opened ones included; the verifier
// only ever sees a salt as the opaque 16 bytes of an Opening.
type salter struct{ block cipher.Block }

func newSalter(seed *[32]byte) salter {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		panic(err) // 32 bytes is an AES key length
	}
	return salter{block}
}

// keystream writes the salts of leaves 0, 1, 2, … of tree label into
// dst back to back: the CTR keystream from leaf 0's counter block,
// which is the salt of every leaf in one pass of the cipher.
func (s salter) keystream(dst []byte, label byte) {
	var iv [aes.BlockSize]byte
	iv[0] = label
	clear(dst)
	cipher.NewCTR(s.block, iv[:]).XORKeyStream(dst, dst)
}

// deriveSalt is the salt of one leaf, for the ~k openings.
func (s salter) deriveSalt(label byte, index int) [saltBytes]byte {
	salt := make([]byte, saltBytes)
	binary.BigEndian.PutUint64(salt, uint64(label)<<56)
	binary.BigEndian.PutUint64(salt[8:], uint64(index))
	s.block.Encrypt(salt, salt)
	return [saltBytes]byte(salt)
}

// saltSlabPool recycles the tables' salt keystreams (*[]byte).
var saltSlabPool sync.Pool

// getSaltSlab returns n bytes of slab. A pooled slab that is too small
// is dropped, and a new one gets a power-of-two capacity, so the
// similar-sized tables of one seal come to share one slab size.
func getSaltSlab(n int) []byte {
	if v := saltSlabPool.Get(); v != nil {
		if s := *v.(*[]byte); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]byte, n, 1<<bits.Len(uint(n)))
}

func putSaltSlab(s []byte) {
	if cap(s) > 0 {
		saltSlabPool.Put(&s)
	}
}

// table is one committed column of a seal: n records, leafRecords of
// them to a leaf, leaf j being SHA-256(0x00 || salt_j || its records) —
// for exec rows, the first of them and a witness word for each of the
// rest (encodeExecLeafInto). No payload table is ever materialized — the
// commit encodes each leaf into stack scratch and the ~k openings
// re-encode theirs; encoding is deterministic, so the re-encoded bytes
// are exactly what was hashed into the leaf.
type table struct {
	salts    salter
	keys     []byte // leaf j's salt is keys[saltBytes*j:][:saltBytes]
	label    byte   // salt domain; also says which column below is set
	n        int    // records
	recBytes int

	rows  []Row        // treeExec
	prog  *Program     // treeExec: what derives a leaf's rows from its first
	mem   []MemEntry   // treeMemProg, treeMemSort
	prods []field.Elem // treeProdProg, treeProdSort
	img   []imagePair  // treeBoundary

	ready     <-chan struct{} // if set, closed once the records are in place
	builder   *merkle.Builder // while commitTables runs
	firstTask int             // of this table's blocks in the crew's task list
	tree      *merkle.Tree
}

func rowTable(salts salter, prog *Program, rows []Row) *table {
	return salted(&table{salts: salts, label: treeExec, n: len(rows), recBytes: rowBytes, rows: rows, prog: prog})
}

func memTable(salts salter, label byte, log []MemEntry) *table {
	return salted(&table{salts: salts, label: label, n: len(log), recBytes: memBytes, mem: log})
}

func prodTable(salts salter, label byte, col []field.Elem) *table {
	return salted(&table{salts: salts, label: label, n: len(col), recBytes: prodBytes, prods: col})
}

func imageTable(salts salter, img []imagePair) *table {
	return salted(&table{salts: salts, label: treeBoundary, n: len(img), recBytes: imgBytes, img: img})
}

// salted generates the salts of all of t's leaves into a pooled slab,
// which t.release returns.
func salted(t *table) *table {
	t.keys = getSaltSlab(saltBytes * t.leaves())
	t.salts.keystream(t.keys, t.label)
	return t
}

// release recycles the table's tree and salts; openings copied out
// everything they keep.
func (t *table) release() {
	t.tree.Release()
	putSaltSlab(t.keys)
	t.keys = nil
}

// leaves is the number of committed leaves.
func (t *table) leaves() int { return (t.n + leafRecords - 1) / leafRecords }

// encodeLeaf serialises the records of leaf j back to back into dst and
// returns their length. The calls are static so that commitBlock's
// scratch stays on its stack.
func (t *table) encodeLeaf(j int, dst []byte) int {
	lo := j * leafRecords
	hi := min(lo+leafRecords, t.n)
	switch t.label {
	case treeExec:
		return encodeExecLeafInto(dst, t.prog, t.rows[lo:hi])
	case treeMemProg, treeMemSort:
		for i := lo; i < hi; i++ {
			encodeMemEntryInto(dst[(i-lo)*memBytes:], &t.mem[i])
		}
	case treeProdProg, treeProdSort:
		for i := lo; i < hi; i++ {
			encodeProdInto(dst[(i-lo)*prodBytes:], t.prods[i])
		}
	case treeBoundary:
		for i := lo; i < hi; i++ {
			encodeImagePairInto(dst[(i-lo)*imgBytes:], t.img[i])
		}
	}
	return (hi - lo) * t.recBytes
}

// commitTables commits every table of one challenge phase on a single
// crew of width workers. Each table is cut into the Merkle builder's
// aligned leaf blocks and the workers claim (table, block) tasks by
// index from one list, so a large table's blocks fill in around the
// small ones and no worker idles while another reduces a tree alone;
// only the levels above the block roots are hashed serially. Tasks
// write disjoint arena ranges, so the trees are the same at any width.
//
// lead, when non-nil, is task 0: work the crew runs beside the blocks,
// such as producing the records of a table whose ready channel it
// closes. Tasks are claimed in ascending order, so a block that waits
// on ready is only ever claimed after lead, which is already running
// (at width 1, already done): the wait cannot deadlock.
func commitTables(width int, lead func(), tabs ...*table) {
	tasks := 0
	if lead != nil {
		tasks = 1
	}
	for _, t := range tabs {
		t.builder = merkle.NewBuilder(t.leaves())
		t.firstTask = tasks
		tasks += t.builder.Blocks()
	}
	par.Each(width, tasks, func(k int) {
		if lead != nil && k == 0 {
			lead()
			return
		}
		t := tabs[sort.Search(len(tabs), func(i int) bool { return tabs[i].firstTask > k })-1]
		if t.ready != nil {
			<-t.ready
		}
		t.commitBlock(k - t.firstTask)
	})
	for _, t := range tabs {
		t.tree, t.builder = t.builder.Finish(), nil
	}
}

// The widest salted leaf fits the hash kernel's message buffer.
var _ [hashk.MaxMsg - (1 + saltBytes + maxLeafBytes)]struct{}

// commitBlock salts, encodes and leaf-hashes one builder block, two
// leaves at a time (only a table's last leaf can differ in length from
// its neighbour), and reduces it to its subtree root while it is still
// in cache.
func (t *table) commitBlock(block int) {
	first, leaves := t.builder.Leaves(block)
	var a, b hashk.Msg
	a[0], b[0] = hashk.LeafPrefix, hashk.LeafPrefix
	i := 0
	for ; i+1 < len(leaves); i += 2 {
		na, nb := t.leafMsg(&a, first+i), t.leafMsg(&b, first+i+1)
		if na == nb {
			leaves[i], leaves[i+1] = hashk.SumMsg2(&a, &b, na)
		} else {
			leaves[i], leaves[i+1] = hashk.SumMsg(&a, na), hashk.SumMsg(&b, nb)
		}
	}
	if i < len(leaves) {
		leaves[i] = hashk.SumMsg(&a, t.leafMsg(&a, first+i))
	}
	t.builder.Reduce(block)
}

// leafMsg writes leaf j's salt and records after the leaf prefix in m
// and returns the message length.
func (t *table) leafMsg(m *hashk.Msg, j int) int {
	copy(m[1:1+saltBytes], t.keys[saltBytes*j:])
	return 1 + saltBytes + t.encodeLeaf(j, m[1+saltBytes:])
}

// open opens leaf j: its salt and its records, re-encoded.
func (t *table) open(j int) Opening {
	var buf [maxLeafBytes]byte
	data := bytes.Clone(buf[:t.encodeLeaf(j, buf[:])])
	return Opening{Index: j, Salt: t.salts.deriveSalt(t.label, j), Data: data}
}

// opener opens leaves of one table for one segment and records which,
// so that the segment can ship the table's multiproof. The boundary
// image tables are shared with the neighbouring segments, which seal
// concurrently, so the record lives here and never on the table.
type opener struct {
	t      *table
	leaves []int
}

// open opens leaf j.
func (o *opener) open(j int) Opening {
	o.leaves = append(o.leaves, j)
	return o.t.open(j)
}

// openRecord opens the leaf holding record i.
func (o *opener) openRecord(i int) Opening { return o.open(i / leafRecords) }

// openSpan opens the leaves holding records [lo, hi), each once: the
// prover's side of column.records.
func (o *opener) openSpan(lo, hi int) []Opening {
	var span []Opening
	for j := lo / leafRecords; lo < hi && j <= (hi-1)/leafRecords; j++ {
		span = append(span, o.open(j))
	}
	return span
}

// proof returns the multiproof of every leaf opened so far, each once:
// an empty one if none was. Indices are derived from committed lengths,
// so a refusal is a prover bug.
func (o *opener) proof() merkle.MultiProof {
	if len(o.leaves) == 0 {
		return merkle.MultiProof{}
	}
	slices.Sort(o.leaves)
	p, err := o.t.tree.ProveMulti(slices.Compact(o.leaves))
	if err != nil {
		panic(fmt.Sprintf("zkvm: multiproof of %d leaves: %v", len(o.leaves), err))
	}
	return p
}

// sealTables is the committed core every seal shares: the execution
// rows, the memory log in program and address order, and the two
// running-product columns.
type sealTables struct {
	ex                                         *Execution
	sorted                                     []MemEntry
	exec, memProg, memSort, prodProg, prodSort *table
}

// commitTrace commits the tables of ex under salts, binding their
// roots into s and tr and drawing the memory-check challenges between
// the two phases. The caller has absorbed its public statement into tr
// and releases the tables once its openings are done.
func commitTrace(ex *Execution, salts salter, width int, obs StageObserver, tr *transcript.Transcript, s *Seal) *sealTables {
	// The address sort is the phase-1 crew's lead task: the exec and
	// program-order blocks are claimed around it, and the address-order
	// table, the log's length with no records yet, commits last, its
	// blocks waiting for the sort.
	commitDone := stageTimer(obs, StageMerkleCommit)
	sorted := make(chan struct{})
	c := &sealTables{ex: ex,
		exec:    rowTable(salts, ex.Program, ex.Rows),
		memProg: memTable(salts, treeMemProg, ex.MemLog),
		memSort: salted(&table{salts: salts, label: treeMemSort, n: len(ex.MemLog), recBytes: memBytes, ready: sorted}),
	}
	commitTables(width, func() {
		defer stageTimer(obs, StageMemSort)()
		c.sorted = sortedMemLog(ex.MemLog)
		c.memSort.mem = c.sorted
		close(sorted)
	}, c.exec, c.memProg, c.memSort)
	commitDone()
	s.ExecRoot = c.exec.tree.Root()
	s.MemProgRoot = c.memProg.tree.Root()
	s.MemSortRoot = c.memSort.tree.Root()
	tr.Append("exec-root", s.ExecRoot[:])
	tr.Append("memprog-root", s.MemProgRoot[:])
	tr.Append("memsort-root", s.MemSortRoot[:])
	alpha := tr.ChallengeElem("alpha")
	gamma := tr.ChallengeElem("gamma")

	// The product columns are kept as field elements (8 bytes/row) for
	// the openings; their trees commit on one crew.
	prodDone := stageTimer(obs, StageGrandProduct)
	prodProg, prodSort := productColumns(ex.MemLog, c.sorted, alpha, gamma, width)
	c.prodProg = prodTable(salts, treeProdProg, prodProg)
	c.prodSort = prodTable(salts, treeProdSort, prodSort)
	commitTables(width, nil, c.prodProg, c.prodSort)
	prodDone()
	s.ProdProgRoot = c.prodProg.tree.Root()
	s.ProdSortRoot = c.prodSort.tree.Root()
	tr.Append("prodprog-root", s.ProdProgRoot[:])
	tr.Append("prodsort-root", s.ProdSortRoot[:])
	return c
}

// openers returns one segment's openers over its trees, indexed
// proofExec..proofExit; entry and exit are the shared boundary-image
// tables (nil where the segment has none).
func (c *sealTables) openers(entry, exit *table) *[numTrees]opener {
	return &[numTrees]opener{
		proofExec: {t: c.exec}, proofMemProg: {t: c.memProg}, proofMemSort: {t: c.memSort},
		proofProdProg: {t: c.prodProg}, proofProdSort: {t: c.prodSort},
		proofEntry: {t: entry}, proofExit: {t: exit},
	}
}

// openChecks fills in the boundary openings and the exec, prod and
// sort check families, in the exact order the verifier derives them.
// The sampled indices are record indices; an adjacent pair opens the
// one leaf it lies in, or the two it straddles.
func (c *sealTables) openChecks(ops *[numTrees]opener, tr *transcript.Transcript, checks int, s *Seal) {
	rows := c.ex.Rows
	nRows, nMem := len(rows), len(c.sorted)
	exec, memProg, memSort := &ops[proofExec], &ops[proofMemProg], &ops[proofMemSort]
	prodProg, prodSort := &ops[proofProdProg], &ops[proofProdSort]
	s.FirstRow = exec.openRecord(0)
	s.LastRow = exec.openRecord(nRows - 1)
	if nMem > 0 {
		s.MemProgFirst = memProg.openRecord(0)
		s.MemSortFirst = memSort.openRecord(0)
		s.ProdProgFirst = prodProg.openRecord(0)
		s.ProdSortFirst = prodSort.openRecord(0)
		s.ProdProgLast = prodProg.openRecord(nMem - 1)
		s.ProdSortLast = prodSort.openRecord(nMem - 1)
	}
	if nRows >= 2 {
		for _, i := range tr.ChallengeIndices("exec", checks, nRows-1) {
			s.ExecChecks = append(s.ExecChecks, ExecCheck{
				Rows: exec.openSpan(i, i+2),
				Mem:  memProg.openSpan(int(rows[i].MemPtr), int(rows[i+1].MemPtr)),
			})
		}
	}
	if nMem >= 2 {
		for _, i := range tr.ChallengeIndices("prod", checks, nMem-1) {
			s.ProdChecks = append(s.ProdChecks, ProdCheck{
				Entry: memProg.openRecord(i + 1),
				Prods: prodProg.openSpan(i, i+2),
			})
		}
		for _, i := range tr.ChallengeIndices("sort", checks, nMem-1) {
			s.SortChecks = append(s.SortChecks, SortCheck{
				Entries: memSort.openSpan(i, i+2),
				Prods:   prodSort.openSpan(i, i+2),
			})
		}
	}
}

// release recycles the scratch tables: everything a receipt keeps —
// roots and openings — was copied out of them.
func (c *sealTables) release() {
	putMemSlab(c.sorted)
	putProdSlab(c.prodProg.prods)
	putProdSlab(c.prodSort.prods)
	for _, t := range []*table{c.exec, c.memProg, c.memSort, c.prodProg, c.prodSort} {
		t.release()
	}
}
