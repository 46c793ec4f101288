package zkvm

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"zkflow/internal/field"
	"zkflow/internal/hashk"
	"zkflow/internal/merkle"
	"zkflow/internal/par"
	"zkflow/internal/slab"
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

// saltSlabs recycles the tables' salt keystreams.
var saltSlabs slab.Pool[byte]

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

	rows  []Row         // treeExec
	prog  *Program      // treeExec: what derives a leaf's rows from its first
	mem   []MemEntry    // treeMem
	prods []field.Elem  // treeLogProd, treeFinalProd, treeInitProd: one element a block
	img   []imageRecord // treeImage; treeFinalProd: the table whose blocks' last addresses it carries

	ready     <-chan struct{} // if set, closed once the records are in place
	builder   *merkle.Builder // while commitTables runs
	firstTask int             // of this table's blocks in the crew's task list
	tree      *merkle.Tree
}

func rowTable(salts salter, prog *Program, rows []Row) *table {
	return salted(&table{salts: salts, label: treeExec, n: len(rows), recBytes: rowBytes, rows: rows, prog: prog})
}

func memTable(salts salter, log []MemEntry) *table {
	return salted(&table{salts: salts, label: treeMem, n: len(log), recBytes: memBytes, mem: log})
}

func prodTable(salts salter, label byte, col []field.Elem) *table {
	return salted(&table{salts: salts, label: label, n: len(col), recBytes: prodBytes, prods: col})
}

// columnTable is the table of the product column over the blocks of
// img, with its elements still to come: element j of the final table's
// column is the block product and lastAddr_j, the address of block j's
// last record; an entry image's is the product alone.
func columnTable(salts salter, label byte, img []imageRecord, ready <-chan struct{}) *table {
	t := &table{salts: salts, label: label, n: blocks(len(img)), recBytes: prodBytes, ready: ready}
	if label == treeFinalProd {
		t.recBytes, t.img = finalProdBytes, img
	}
	return salted(t)
}

func imageTable(salts salter, img []imageRecord) *table {
	return salted(&table{salts: salts, label: treeImage, n: len(img), recBytes: imgBytes, img: img})
}

// salted generates the salts of all of t's leaves into a pooled slab,
// which t.release returns.
func salted(t *table) *table {
	t.keys = saltSlabs.Get(saltBytes * t.leaves())
	t.salts.keystream(t.keys, t.label)
	return t
}

// release recycles the table's tree and salts; openings copied out
// everything they keep.
func (t *table) release() {
	t.tree.Release()
	saltSlabs.Put(t.keys)
	t.keys = nil
}

// leaves is the number of committed leaves.
func (t *table) leaves() int { return blocks(t.n) }

// encodeLeaf serialises the records of leaf j back to back into dst and
// returns their length. The calls are static so that commitBlock's
// scratch stays on its stack.
func (t *table) encodeLeaf(j int, dst []byte) int {
	lo := j * leafRecords
	hi := min(lo+leafRecords, t.n)
	switch t.label {
	case treeExec:
		return encodeExecLeafInto(dst, t.prog, t.rows[lo:hi])
	case treeMem:
		for i := lo; i < hi; i++ {
			encodeMemEntryInto(dst[(i-lo)*memBytes:], &t.mem[i])
		}
	case treeLogProd, treeInitProd:
		for i := lo; i < hi; i++ {
			encodeProdInto(dst[(i-lo)*prodBytes:], t.prods[i])
		}
	case treeFinalProd:
		for i := lo; i < hi; i++ {
			b := dst[(i-lo)*finalProdBytes:]
			encodeProdInto(b, t.prods[i])
			binary.LittleEndian.PutUint32(b[prodBytes:], t.img[min((i+1)*leafRecords, len(t.img))-1].Addr)
		}
	case treeImage:
		for i := lo; i < hi; i++ {
			encodeImageRecordInto(dst[(i-lo)*imgBytes:], t.img[i])
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

// sealTables is the committed core of a segment's seal: the execution
// rows, the memory log, the final table and the three product columns
// of the memory argument, with the entry image the segment reads.
type sealTables struct {
	ex                           *Execution
	exec, mem, final, entry      *table // entry is nil for a segment entered at genesis
	logProd, finalProd, initProd *table
	ownFinal                     bool // final is the segment's own, not a shared exit image
}

// commitTrace commits the tables of seg under salts, binding their
// roots into s and tr and drawing the memory-check challenges between
// the two phases. entry and exit are the shared boundary-image tables,
// nil at either end of the run: a final segment commits its final table
// in its own first phase, a non-final one has it as its exit image. The
// caller has absorbed its public statement into tr and releases the
// tables once its openings are done.
func commitTrace(seg *segmentExecution, salts salter, width int, obs StageObserver, tr *transcript.Transcript, s *Seal, entry, exit *table) *sealTables {
	ex := seg.ex
	commitDone := stageTimer(obs, StageMerkleCommit)
	c := &sealTables{ex: ex,
		exec:  rowTable(salts, ex.Program, ex.Rows),
		mem:   memTable(salts, ex.MemLog),
		final: exit,
		entry: entry,
	}
	phase1 := []*table{c.exec, c.mem}
	if exit == nil {
		c.final, c.ownFinal = imageTable(salts, seg.exitImg), true
		phase1 = append(phase1, c.final)
	}
	commitTables(width, nil, phase1...)
	commitDone()
	s.ExecRoot = c.exec.tree.Root()
	s.MemRoot = c.mem.tree.Root()
	s.FinalRoot = c.final.tree.Root()
	tr.Append("exec-root", s.ExecRoot[:])
	tr.Append("mem-root", s.MemRoot[:])
	tr.Append("final-root", s.FinalRoot[:])
	ch := newChallenges(tr.ChallengeElem("alpha"), tr.ChallengeElem("gamma"))

	// The product columns are kept as field elements, one a block of
	// their table's records, for the openings. The log's is scanned on
	// the crew first; the scan of the two image columns is the lead task
	// of the crew that commits all three, their blocks waiting for it
	// while the other workers hash the log's.
	prodDone := stageTimer(obs, StageGrandProduct)
	c.logProd = prodTable(salts, treeLogProd, logColumn(ex.MemLog, &ch, width))
	ready := make(chan struct{})
	c.finalProd = columnTable(salts, treeFinalProd, c.final.img, ready)
	c.initProd = columnTable(salts, treeInitProd, seg.entryImg, ready)
	commitTables(width, func() {
		c.finalProd.prods = imageColumn(c.final.img, &ch, false)
		c.initProd.prods = imageColumn(seg.entryImg, &ch, true)
		close(ready)
	}, c.logProd, c.finalProd, c.initProd)
	prodDone()
	s.LogProdRoot = c.logProd.tree.Root()
	s.FinalProdRoot = c.finalProd.tree.Root()
	s.InitProdRoot = c.initProd.tree.Root()
	tr.Append("logprod-root", s.LogProdRoot[:])
	tr.Append("finalprod-root", s.FinalProdRoot[:])
	tr.Append("initprod-root", s.InitProdRoot[:])
	return c
}

// openers returns the segment's openers over its trees, indexed
// proofExec..proofInitProd. The boundary images are shared with the
// neighbouring segments, so what is opened is recorded here.
func (c *sealTables) openers() *[numTrees]opener {
	return &[numTrees]opener{
		proofExec: {t: c.exec}, proofMem: {t: c.mem}, proofLogProd: {t: c.logProd},
		proofFinal: {t: c.final}, proofFinalProd: {t: c.finalProd},
		proofEntry: {t: c.entry}, proofInitProd: {t: c.initProd},
	}
}

// openChecks fills in the always-opened leaves and the four sampled
// check families, in the exact order the verifier derives them. An exec
// check samples a row index, and its adjacent pair opens the one leaf
// it lies in, or the two it straddles; the other families sample a
// block step j and open leaf j+1 of the records and column elements j
// and j+1.
func (c *sealTables) openChecks(ops *[numTrees]opener, tr *transcript.Transcript, checks int, s *Seal) {
	rows := c.ex.Rows
	nRows := len(rows)
	exec, mem := &ops[proofExec], &ops[proofMem]
	s.FirstRow = exec.openRecord(0)
	s.LastRow = exec.openRecord(nRows - 1)
	s.Log = openEnds(mem, &ops[proofLogProd])
	s.Final = openEnds(&ops[proofFinal], &ops[proofFinalProd])
	s.Init = openEnds(&ops[proofEntry], &ops[proofInitProd])
	if nRows >= 2 {
		for _, i := range tr.ChallengeIndices("exec", checks, nRows-1) {
			s.ExecChecks = append(s.ExecChecks, ExecCheck{
				Rows: exec.openSpan(i, i+2),
				Mem:  mem.openSpan(int(rows[i].MemPtr), int(rows[i+1].MemPtr)),
			})
		}
	}
	s.MemChecks = openSteps(tr, "mem", checks, mem, &ops[proofLogProd])
	s.FinalChecks = openSteps(tr, "final", checks, &ops[proofFinal], &ops[proofFinalProd])
	s.InitChecks = openSteps(tr, "init", checks, &ops[proofEntry], &ops[proofInitProd])
}

// openEnds opens the first block of a table — leaf 0, whose factors
// are its column's first element — and the first and last elements of
// its column, if the table has records.
func openEnds(recs, prods *opener) Ends {
	n := prods.t.n
	if n == 0 {
		return Ends{}
	}
	return Ends{Record: recs.open(0), First: prods.openRecord(0), Last: prods.openRecord(n - 1)}
}

// openSteps opens the block-step family label over a table and its
// column: leaf j+1 of the records and elements j and j+1 for each
// sampled j.
func openSteps(tr *transcript.Transcript, label string, checks int, recs, prods *opener) []ProdCheck {
	n := prods.t.n
	if n < 2 {
		return nil
	}
	var out []ProdCheck
	for _, j := range tr.ChallengeIndices(label, checks, n-1) {
		out = append(out, ProdCheck{Record: recs.open(j + 1), Prods: prods.openSpan(j, j+2)})
	}
	return out
}

// release recycles the scratch tables: everything a receipt keeps —
// roots and openings — was copied out of them. The boundary images
// belong to the run's sealer.
func (c *sealTables) release() {
	for _, t := range []*table{c.logProd, c.finalProd, c.initProd} {
		field.Slabs.Put(t.prods)
		t.release()
	}
	c.exec.release()
	c.mem.release()
	if c.ownFinal {
		c.final.release()
	}
}
