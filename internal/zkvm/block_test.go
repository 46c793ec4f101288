package zkvm

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"zkflow/internal/hashk"
	"zkflow/internal/merkle"
)

// This file tests the blocked-leaf shape of a seal from the verifier's
// side: what a column accepts as a leaf — whole records, or an exec
// leaf's head row and witness words — how many openings an adjacent
// pair or a run may carry, and that no mutation of a valid receipt — of
// either kind — verifies.

// leafShape is one of the two leaf layouts a column can have, with a
// committed table of n records of it.
type leafShape struct {
	name string
	tab  *table
	col  column
	// tailBytes is what a record after the first adds to a leaf.
	tailBytes int
	// get is the column's accessor: the records [lo, hi) out of span,
	// each in its own encoding.
	get func(span []Opening, lo, hi int) ([][]byte, error)
}

// leafShapes commits n exec rows (witnessed leaves) and n memory
// entries (whole records, as in every other column).
func leafShapes(t *testing.T, n int) []*leafShape {
	t.Helper()
	exec, mem := execTable(&[32]byte{3}, n), shapeTables(&[32]byte{3}, n)["mem"]
	commitTables(1, nil, exec, mem)
	t.Cleanup(exec.tree.Release)
	t.Cleanup(mem.tree.Release)
	execCol := column{root: exec.tree.Root(), n: n, recBytes: rowBytes, witnessed: true, opened: new([]*Opening)}
	memCol := column{root: mem.tree.Root(), n: n, recBytes: memBytes, opened: new([]*Opening)}
	return []*leafShape{
		{"witnessed", exec, execCol, 4, func(span []Opening, lo, hi int) ([][]byte, error) {
			rows, err := execCol.rows(nil, exec.prog, span, lo, hi)
			recs := make([][]byte, len(rows))
			for i := range rows {
				recs[i] = make([]byte, rowBytes)
				encodeRowInto(recs[i], &rows[i])
			}
			return recs, err
		}},
		{"whole", mem, memCol, memBytes, func(span []Opening, lo, hi int) ([][]byte, error) {
			return memCol.records(nil, span, lo, hi)
		}},
	}
}

// TestColumnLeafShape: the committed record count fixes the shape of
// every leaf — ceil(n/B) leaves, hence the tree's depth; B records to a
// leaf, fewer only in the last — and an opening of any other shape is
// rejected even when its hash chain reaches the root. What a column
// accepts, the tree's multiproof must then authenticate: a multiproof
// with a node too many, too few or out of order, or a leaf opened twice
// with different contents, is rejected.
func TestColumnLeafShape(t *testing.T) {
	const n = 10 // leaves of 4, 4 and 2 records
	for _, sh := range leafShapes(t, n) {
		t.Run(sh.name, func(t *testing.T) {
			tab, col := sh.tab, sh.col
			op := &opener{t: tab}
			for i := 0; i < n; i++ {
				got, err := sh.get([]Opening{op.openRecord(i)}, i, i+1)
				if err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				if !bytes.Equal(got[0], recordBytes(tab, i)) {
					t.Fatalf("record %d: wrong bytes out of leaf %d", i, i/leafRecords)
				}
			}
			if err := col.authenticate(op.proof()); err != nil {
				t.Fatalf("every leaf, opened record by record: %v", err)
			}
			if full, tail := len(tab.open(0).Data), len(tab.open(2).Data); full != tab.recBytes+3*sh.tailBytes || tail != tab.recBytes+sh.tailBytes {
				t.Fatalf("leaf payloads of %d and %d bytes", full, tail)
			}

			// accepts reports whether the column takes os as leaves idx and p
			// authenticates them.
			accepts := func(c column, p merkle.MultiProof, idx int, os ...Opening) bool {
				c.opened = new([]*Opening)
				for k := range os {
					if c.leaf(&os[k], idx) != nil {
						return false
					}
				}
				return c.authenticate(p) == nil
			}
			proofOf := func(leaves ...int) merkle.MultiProof {
				p, err := tab.tree.ProveMulti(leaves)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			if !accepts(col, proofOf(1), 1, tab.open(1)) || !accepts(col, proofOf(1), 1, tab.open(1), tab.open(1)) {
				t.Fatal("an honest leaf, opened once or twice, rejected")
			}

			// A different record count means a different leaf count: the same
			// openings no longer fit.
			tail := tab.open(2)
			for _, claimed := range []int{8, 9, 11, 12, 13, 16, 17} {
				c := col
				c.n = claimed
				if accepts(c, proofOf(2), 2, tail) {
					t.Errorf("two-record tail leaf accepted in a table claiming %d records", claimed)
				}
			}
			// ... even when the attacker really committed that other tree: a
			// tree over the 10 records one per leaf has its own root, and its
			// openings are not leaves of a blocked column.
			perRecord := make([]merkle.Hash, n)
			for i := range perRecord {
				perRecord[i] = saltedLeafHash(tab.salts.deriveSalt(tab.label, i), recordBytes(tab, i))
			}
			perRecordTree := merkle.BuildHashes(perRecord)
			proof, _ := perRecordTree.ProveMulti([]int{2})
			perRecordOpening := Opening{Index: 2, Salt: tab.salts.deriveSalt(tab.label, 2), Data: recordBytes(tab, 2)}
			if merkle.VerifyMulti(perRecordTree.Root(), perRecordTree.Depth(), []merkle.Leaf{{Index: 2, Hash: perRecord[2]}}, proof) != nil {
				t.Fatal("the per-record opening is not even valid in its own tree")
			}
			blockedOverPerRecord := col
			blockedOverPerRecord.root = perRecordTree.Root()
			if accepts(blockedOverPerRecord, proof, 2, perRecordOpening) {
				t.Error("a 10-leaf tree accepted as the 3-leaf tree of a blocked 10-record column")
			}

			leaf := func(j int, edit func(o *Opening)) Opening {
				o := tab.open(j)
				edit(&o)
				return o
			}
			nodes := proofOf(1).Nodes
			if len(nodes) != 2 || nodes[0] == nodes[1] {
				t.Fatalf("leaf 1 of 3 has %d path nodes", len(nodes))
			}
			for name, m := range map[string]struct {
				p   merkle.MultiProof
				idx int
				os  []Opening
			}{
				"short block before the tail":  {proofOf(0), 0, []Opening{leaf(0, func(o *Opening) { o.Data = o.Data[:len(o.Data)-sh.tailBytes] })}},
				"tail padded to a full block":  {proofOf(2), 2, []Opening{leaf(2, func(o *Opening) { o.Data = append(o.Data, make([]byte, 2*sh.tailBytes)...) })}},
				"payload not whole records":    {proofOf(1), 1, []Opening{leaf(1, func(o *Opening) { o.Data = o.Data[:len(o.Data)-1] })}},
				"empty payload":                {proofOf(1), 1, []Opening{leaf(1, func(o *Opening) { o.Data = nil })}},
				"payload past a hash message":  {proofOf(1), 1, []Opening{leaf(1, func(o *Opening) { o.Data = append(o.Data, make([]byte, hashk.MaxMsg)...) })}},
				"surplus node":                 {merkle.MultiProof{Nodes: append(slices.Clone(nodes), merkle.PaddingHash(2))}, 1, []Opening{tab.open(1)}},
				"missing node":                 {merkle.MultiProof{Nodes: nodes[:1]}, 1, []Opening{tab.open(1)}},
				"out-of-order node":            {merkle.MultiProof{Nodes: []merkle.Hash{nodes[1], nodes[0]}}, 1, []Opening{tab.open(1)}},
				"duplicated index, other data": {proofOf(1), 1, []Opening{tab.open(1), leaf(1, func(o *Opening) { o.Data[len(o.Data)-1] ^= 1 })}},
				"duplicated index, other salt": {proofOf(1), 1, []Opening{leaf(1, func(o *Opening) { o.Salt[0] ^= 1 }), tab.open(1)}},
				"index of another leaf":        {proofOf(1), 1, []Opening{leaf(1, func(o *Opening) { o.Index = 0 })}},
				"flipped salt":                 {proofOf(1), 1, []Opening{leaf(1, func(o *Opening) { o.Salt[0] ^= 1 })}},
				"flipped unused record":        {proofOf(1), 1, []Opening{leaf(1, func(o *Opening) { o.Data[len(o.Data)-1] ^= 1 })}},
			} {
				if accepts(col, m.p, m.idx, m.os...) {
					t.Errorf("%s: accepted", name)
				}
			}
			if accepts(col, proofOf(2), 3, tail) {
				t.Error("leaf index past the last leaf accepted")
			}
			if _, err := sh.get([]Opening{tail}, n, n+1); err == nil {
				t.Error("record index past the table accepted")
			}
		})
	}

	// Whole rows are no leaf of an exec column.
	exec := leafShapes(t, n)[0]
	o := exec.tab.open(0)
	for i := 1; i < leafRecords; i++ {
		o.Data = append(o.Data[:i*rowBytes], recordBytes(exec.tab, i)...)
	}
	if err := exec.col.leaf(&o, 0); err == nil {
		t.Error("four whole rows accepted as a head row and three words")
	}
}

// TestSpanOpeningCounts: a run of records carries each distinct leaf
// exactly once — an adjacent pair one opening, two only when it
// straddles a block — and one too many or too few is an error.
func TestSpanOpeningCounts(t *testing.T) {
	const n = 14
	for _, sh := range leafShapes(t, n) {
		t.Run(sh.name, func(t *testing.T) {
			tab, op := sh.tab, &opener{t: sh.tab}
			for i := 0; i+1 < n; i++ {
				span := op.openSpan(i, i+2)
				want := 1
				if i%leafRecords == leafRecords-1 {
					want = 2
				}
				if len(span) != want {
					t.Fatalf("pair (%d,%d): prover opened %d leaves, want %d", i, i+1, len(span), want)
				}
				recs, err := sh.get(span, i, i+2)
				if err != nil {
					t.Fatalf("pair (%d,%d): %v", i, i+1, err)
				}
				if !bytes.Equal(recs[0], recordBytes(tab, i)) || !bytes.Equal(recs[1], recordBytes(tab, i+1)) {
					t.Fatalf("pair (%d,%d): wrong records", i, i+1)
				}
				// Extra: the leaf again, and the next leaf.
				for _, extra := range []int{span[len(span)-1].Index, min(span[len(span)-1].Index+1, tab.leaves()-1)} {
					if _, err := sh.get(append(span[:len(span):len(span)], tab.open(extra)), i, i+2); err == nil {
						t.Errorf("pair (%d,%d): extra opening of leaf %d accepted", i, i+1, extra)
					}
				}
				// Missing.
				if _, err := sh.get(span[:len(span)-1], i, i+2); err == nil {
					t.Errorf("pair (%d,%d): missing opening accepted", i, i+1)
				}
				// The two leaves of a straddling pair in the wrong order.
				if want == 2 {
					if _, err := sh.get([]Opening{span[1], span[0]}, i, i+2); err == nil {
						t.Errorf("pair (%d,%d): swapped openings accepted", i, i+1)
					}
				}
			}
			// Longer runs, as an exec check's memory entries: every leaf once.
			for _, run := range [][2]int{{0, 0}, {5, 5}, {2, 3}, {1, 9}, {0, n}, {4, 8}, {3, 5}} {
				span := op.openSpan(run[0], run[1])
				recs, err := sh.get(span, run[0], run[1])
				if err != nil || len(recs) != run[1]-run[0] {
					t.Fatalf("run %v: %d records, err %v", run, len(recs), err)
				}
				for k, rec := range recs {
					if !bytes.Equal(rec, recordBytes(tab, run[0]+k)) {
						t.Fatalf("run %v: wrong record %d", run, run[0]+k)
					}
				}
				if _, err := sh.get(append(span, tab.open(0)), run[0], run[1]); err == nil {
					t.Errorf("run %v: extra opening accepted", run)
				}
			}
			if _, err := sh.get(nil, 3, 2); err == nil {
				t.Error("backwards run accepted")
			}
			if _, err := sh.get(op.openSpan(12, 14), 12, 15); err == nil {
				t.Error("run past the table accepted")
			}
		})
	}
}

// blockFixtures are a one-segment (mono) and a multi-segment (comp)
// receipt sealed under fixed seeds, so their bytes are the same in every
// run.
type blockFixtures struct {
	prog, segProg *Program
	mono          *Receipt
	comp          *Receipt
	monoBytes     []byte
	compBytes     []byte
}

func newBlockFixtures(t testing.TB) *blockFixtures {
	t.Helper()
	fx := &blockFixtures{prog: sumProgram(), segProg: segTestProgram(t)}
	ex, err := Execute(fx.prog, sumInput(24), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fx.mono, err = proveExecutionSeeded(ex, ProveOptions{Checks: 12}, &[32]byte{0xb1, 0x0c}); err != nil {
		t.Fatal(err)
	}
	fx.comp = mustProve(t, fx.segProg, []uint32{120, 7}, ProveOptions{Checks: 6, SegmentCycles: 512})
	if fx.monoBytes, err = fx.mono.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	if fx.compBytes, err = fx.comp.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	straddling := 0
	for i := range fx.mono.Segments[0].Seal.ExecChecks {
		straddling += len(fx.mono.Segments[0].Seal.ExecChecks[i].Rows) - 1
	}
	if straddling == 0 || straddling == len(fx.mono.Segments[0].Seal.ExecChecks) {
		t.Fatalf("fixture has %d straddling exec pairs of %d: need both kinds", straddling, len(fx.mono.Segments[0].Seal.ExecChecks))
	}
	return fx
}

// execLeafMutants are encodings of the mono fixture with the payload of
// one opened exec leaf changed the ways only a witnessed leaf can be: a
// witness word set on a step that takes none, a word short, a word over,
// and the leaf's rows written out whole. None is
// what the prover committed, so none verifies; what expansion makes of
// such leaves when they *are* committed is TestStrictExecLeaves.
func (fx *blockFixtures) execLeafMutants(t testing.TB) [][]byte {
	t.Helper()
	o := &fx.mono.Segments[0].Seal.ExecChecks[0].Rows[0]
	orig := o.Data
	rows := make([]Row, 1+(len(orig)-rowBytes)/4)
	if err := expandExecLeaf(fx.prog, orig, rows); err != nil {
		t.Fatal(err)
	}
	whole := make([]byte, len(rows)*rowBytes)
	for i := range rows {
		encodeRowInto(whole[i*rowBytes:], &rows[i])
	}
	word := bytes.Clone(orig)
	word[rowBytes] ^= 1
	var out [][]byte
	for _, data := range [][]byte{word, orig[:len(orig)-4], append(bytes.Clone(orig), 0, 0, 0, 0), whole} {
		o.Data = data
		if err := Verify(fx.prog, fx.mono, VerifyOptions{}); err == nil {
			t.Fatalf("exec leaf payload of %d bytes where %d were committed: verified", len(data), len(orig))
		}
		b, err := fx.mono.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	o.Data = orig
	return out
}

// mustNotVerify requires that data, which is not one of the fixtures'
// own encodings, either does not decode or does not verify — under
// either program.
func (fx *blockFixtures) mustNotVerify(t *testing.T, what string, data []byte) {
	t.Helper()
	if bytes.Equal(data, fx.monoBytes) || bytes.Equal(data, fx.compBytes) {
		return
	}
	r, err := UnmarshalAnyReceipt(data)
	if err != nil {
		return
	}
	for _, prog := range []*Program{fx.prog, fx.segProg} {
		if err := VerifyAny(prog, r, VerifyOptions{}); err == nil {
			t.Fatalf("%s: a receipt that is not the one the prover sealed verified", what)
		}
	}
}

// spanMutants returns the malformed variants of a valid span: with the
// last opening dropped (only if that leaves one) and with one opening
// more.
func spanMutants(span []Opening) [][]Opening {
	more := append(span[:len(span):len(span)], span[len(span)-1])
	if len(span) == 1 {
		return [][]Opening{more}
	}
	return [][]Opening{span[:len(span)-1], more}
}

// blockBoundaryMutants are receipts that differ from the fixtures only
// in how many openings one span carries: every straddling pair one
// short, every span one over, in every check family. The in-memory form
// must not verify; whatever of it can be encoded (a pair of three has
// no encoding) is returned.
func (fx *blockFixtures) blockBoundaryMutants(t testing.TB) [][]byte {
	t.Helper()
	type spanField struct {
		family string
		span   *[]Opening
		in     AnyReceipt
		prog   *Program
	}
	var fields []spanField
	mono := func(family string, span *[]Opening) {
		fields = append(fields, spanField{family, span, fx.mono, fx.prog})
	}
	s := &fx.mono.Segments[0].Seal
	for i := range s.ExecChecks {
		mono("exec rows", &s.ExecChecks[i].Rows)
		if len(s.ExecChecks[i].Mem) > 0 {
			mono("exec mem", &s.ExecChecks[i].Mem)
		}
	}
	for i := range s.MemChecks {
		mono("mem prods", &s.MemChecks[i].Prods)
	}
	for i := range s.FinalChecks {
		mono("final prods", &s.FinalChecks[i].Prods)
	}
	finals, inits := 0, 0
	for _, sr := range fx.comp.Segments {
		for i := range sr.Seal.FinalChecks {
			finals++
			fields = append(fields, spanField{"final prods", &sr.Seal.FinalChecks[i].Prods, fx.comp, fx.segProg})
		}
		for i := range sr.Seal.InitChecks {
			inits++
			fields = append(fields, spanField{"init prods", &sr.Seal.InitChecks[i].Prods, fx.comp, fx.segProg})
		}
	}
	if finals == 0 || inits == 0 {
		t.Fatalf("composite fixture has %d final and %d init checks: need both", finals, inits)
	}

	var out [][]byte
	for _, f := range fields {
		orig := *f.span
		for _, m := range spanMutants(orig) {
			*f.span = m
			if err := VerifyAny(f.prog, f.in, VerifyOptions{}); err == nil {
				t.Fatalf("%s check with %d openings where %d belong: verified", f.family, len(m), len(orig))
			}
			if b, err := f.in.MarshalBinary(); err == nil {
				out = append(out, b)
			}
		}
		*f.span = orig
	}
	if err := VerifyAny(fx.prog, fx.mono, VerifyOptions{}); err != nil {
		t.Fatalf("mono fixture no longer verifies after restoring it: %v", err)
	}
	if err := VerifyAny(fx.segProg, fx.comp, VerifyOptions{}); err != nil {
		t.Fatalf("composite fixture no longer verifies after restoring it: %v", err)
	}
	return out
}

// multiProofMutants are encodings of the fixtures with one tree's
// multiproof spelled another way: a node too many, the last node
// dropped, and two distinct nodes swapped, for every tree of every
// segment whose multiproof has nodes. The in-memory form must not
// verify either.
func (fx *blockFixtures) multiProofMutants(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, c := range []struct {
		r    *Receipt
		prog *Program
	}{{fx.mono, fx.prog}, {fx.comp, fx.segProg}} {
		for _, sr := range c.r.Segments {
			for k := range sr.Proofs {
				orig := sr.Proofs[k].Nodes
				if len(orig) < 2 {
					continue
				}
				swapped := slices.Clone(orig)
				swapped[0], swapped[len(swapped)-1] = swapped[len(swapped)-1], swapped[0]
				for _, nodes := range [][]merkle.Hash{append(slices.Clone(orig), orig[0]), orig[:len(orig)-1], swapped} {
					sr.Proofs[k].Nodes = nodes
					if err := Verify(c.prog, c.r, VerifyOptions{}); err == nil {
						t.Fatalf("segment %d: %s multiproof of %d nodes where %d belong: verified", sr.Index, treeNames[k], len(nodes), len(orig))
					}
					b, err := c.r.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, b)
				}
				sr.Proofs[k].Nodes = orig
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no fixture multiproof has two nodes")
	}
	return out
}

// blockRecordMutants are encodings of the fixtures in which one block
// check reads another check's block: the record leaves of two checks of
// one family swapped, for every check of the mem, final and init
// families of every segment whose neighbour opens a different leaf.
// Each swapped leaf is a genuine opening of its tree, at the wrong block
// step. The in-memory form must not verify either.
func (fx *blockFixtures) blockRecordMutants(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, c := range []struct {
		r    *Receipt
		prog *Program
	}{{fx.mono, fx.prog}, {fx.comp, fx.segProg}} {
		for _, sr := range c.r.Segments {
			for _, cs := range [][]ProdCheck{sr.Seal.MemChecks, sr.Seal.FinalChecks, sr.Seal.InitChecks} {
				for i := 0; i+1 < len(cs); i++ {
					a, b := &cs[i].Record, &cs[i+1].Record
					if a.Index == b.Index {
						continue
					}
					*a, *b = *b, *a
					if err := Verify(c.prog, c.r, VerifyOptions{}); err == nil {
						t.Fatalf("segment %d: block checks %d and %d with their records swapped: verified", sr.Index, i, i+1)
					}
					enc, err := c.r.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, enc)
					*a, *b = *b, *a
				}
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no two block checks of a fixture open different leaves")
	}
	return out
}

// TestMultiProofMutantsRejected: a receipt whose multiproof has a
// surplus, a missing or a reordered node is rejected, in memory and
// after a trip through the codec, and so is a leaf that two checks of
// one segment open with different payloads.
func TestMultiProofMutantsRejected(t *testing.T) {
	fx := newBlockFixtures(t)
	for _, m := range fx.multiProofMutants(t) {
		fx.mustNotVerify(t, "encoded multiproof mutant", m)
	}
	// A leaf two checks open, the second time under another salt: the
	// check walk reads the same payload and passes, and the one
	// multiproof cannot authenticate both copies.
	s := &fx.mono.Segments[0].Seal
	byTree := [][]*Opening{{&s.FirstRow, &s.LastRow}, {&s.Log.First, &s.Log.Last}}
	for i := range s.ExecChecks {
		for k := range s.ExecChecks[i].Rows {
			byTree[0] = append(byTree[0], &s.ExecChecks[i].Rows[k])
		}
	}
	for i := range s.MemChecks {
		for k := range s.MemChecks[i].Prods {
			byTree[1] = append(byTree[1], &s.MemChecks[i].Prods[k])
		}
	}
	var dup *Opening
	for _, os := range byTree {
		seen := map[int]bool{}
		for _, o := range os {
			if seen[o.Index] && dup == nil {
				dup = o
			}
			seen[o.Index] = true
		}
	}
	if dup == nil {
		t.Fatal("the mono fixture opens no leaf twice")
	}
	dup.Salt[0] ^= 1
	if err := Verify(fx.prog, fx.mono, VerifyOptions{}); err == nil || !strings.Contains(err.Error(), "opened twice") {
		t.Fatalf("a leaf opened twice under two salts: %v", err)
	}
	dup.Salt[0] ^= 1
	if err := Verify(fx.prog, fx.mono, VerifyOptions{}); err != nil {
		t.Fatalf("mono fixture no longer verifies after restoring it: %v", err)
	}
}

// TestMiscountedSpansRejected: an extra or a missing opening in any
// check family, mono or composite, is rejected by the verifier, and
// again after a trip through the codec.
func TestMiscountedSpansRejected(t *testing.T) {
	fx := newBlockFixtures(t)
	mutants := fx.blockBoundaryMutants(t)
	if len(mutants) == 0 {
		t.Fatal("no encodable mutants")
	}
	for _, m := range mutants {
		fx.mustNotVerify(t, "encoded miscounted span", m)
	}
}

// TestMutatedReceiptsNeverVerify is the deterministic slice of
// FuzzVerifyMutatedReceipt: the exec-leaf payload mutants, the swapped
// block records, random byte flips, every coarse truncation, and
// extensions of both fixtures.
func TestMutatedReceiptsNeverVerify(t *testing.T) {
	fx := newBlockFixtures(t)
	for _, m := range fx.execLeafMutants(t) {
		fx.mustNotVerify(t, "exec leaf payload", m)
	}
	for _, m := range fx.blockRecordMutants(t) {
		fx.mustNotVerify(t, "swapped block records", m)
	}
	rng := rand.New(rand.NewSource(13))
	for _, valid := range [][]byte{fx.monoBytes, fx.compBytes} {
		for trial := 0; trial < 400; trial++ {
			mut := bytes.Clone(valid)
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
			fx.mustNotVerify(t, "bit flip", mut)
		}
		for cut := 0; cut < len(valid); cut += len(valid)/150 + 1 {
			fx.mustNotVerify(t, "truncation", valid[:cut])
		}
		fx.mustNotVerify(t, "extension", append(bytes.Clone(valid), 0))
		fx.mustNotVerify(t, "doubling", append(bytes.Clone(valid), valid...))
	}
}

// FuzzVerifyMutatedReceipt is the verify-level hostile-input target:
// whatever the fuzzer makes of a valid receipt or composite — flips,
// truncations, extensions, splices — must neither panic the decoder or
// the verifier nor verify. The corpus starts from the two valid
// encodings, the block-boundary mutants (a pair one opening short or
// over), the exec-leaf payload mutants, and the golden vectors with one
// bit flipped in the seal, at two places each, the multiproof mutants
// (a node over, short or out of order) and the swapped block records.
func FuzzVerifyMutatedReceipt(f *testing.F) {
	fx := newBlockFixtures(f)
	f.Add(fx.monoBytes)
	f.Add(fx.compBytes)
	for _, m := range fx.blockBoundaryMutants(f) {
		f.Add(m)
	}
	for _, m := range fx.execLeafMutants(f) {
		f.Add(m)
	}
	f.Add(fx.monoBytes[:len(fx.monoBytes)-1])
	f.Add(append(bytes.Clone(fx.compBytes), 0))
	for _, name := range []string{goldenReceiptFile, goldenCompositeFile} {
		stored, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		// Flipped, so that the untouched vector — which does verify — is
		// not itself in the corpus.
		for _, at := range []int{len(stored) / 3, len(stored) / 2} {
			mut := bytes.Clone(stored)
			mut[at] ^= 1
			f.Add(mut)
		}
	}
	for _, m := range fx.multiProofMutants(f) {
		f.Add(m)
	}
	for _, m := range fx.blockRecordMutants(f) {
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fx.mustNotVerify(t, "fuzzed receipt", data)
	})
}

// TestReceiptSizesMatchEncoding pins Size and SealSize against the
// bytes MarshalBinary writes, for both kinds.
func TestReceiptSizesMatchEncoding(t *testing.T) {
	fx := newBlockFixtures(t)
	if got := fx.mono.Size(); got != len(fx.monoBytes) {
		t.Errorf("mono Size() = %d, encoding has %d bytes", got, len(fx.monoBytes))
	}
	if got := fx.comp.Size(); got != len(fx.compBytes) {
		t.Errorf("composite Size() = %d, encoding has %d bytes", got, len(fx.compBytes))
	}
	if fx.mono.SealSize() >= fx.mono.Size() || fx.comp.SealSize() >= fx.comp.Size() {
		t.Error("SealSize is not smaller than Size")
	}
}
