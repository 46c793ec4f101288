package zkvm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"zkflow/internal/field"
	"zkflow/internal/par"
)

// This file tests the offline memory argument as the argument states it
// (DESIGN.md §8): a log whose entries read no tuple of their own time or
// later, a final table in strictly increasing address order, and
// ∏W·∏Init = ∏R·∏F, carried since format v7 by product columns of one
// element a block of leafRecords records. The honest machine's logs
// satisfy all of it; a lie about one field of one entry or final record
// breaks one of the rules; each forgery the argument names is rejected
// by the verifier; and each rule of a block step rejects the forgery
// that only it can see.

// forgeProgram stores 77 at word 600, loads it twice, loads the fresh
// word 601 and journals the sum of the first two loads. Its log is
//
//	0: store 600 = 77   reads (600, 0, 0), virtual   writes (600, 77, 1)
//	1: load 600         reads (600, 77, 1)           writes (600, 77, 2)
//	2: load 600         reads (600, 77, 2)           writes (600, 77, 3)
//	3: load 601         reads (601, 0, 0), virtual   writes (601, 0, 4)
//
// and its final table (600, 77, 3), (601, 0, 4).
func forgeProgram() *Program {
	return asm(func(a *Assembler) {
		a.Li(R5, 600)
		a.Li(R4, 77)
		a.Sw(R4, R5, 0)
		a.Lw(R6, R5, 0)
		a.Lw(R7, R5, 0)
		a.Lw(R8, R5, 1)
		a.Add(R9, R6, R7)
		a.WriteJournal(R9)
		a.HaltCode(0)
	})
}

// lieAt makes step at of ex load word instead of what it loaded, and
// re-derives every later row and the journal from the lie, as a prover
// that keeps its trace consistent with it would.
func lieAt(t *testing.T, ex *Execution, at int, word uint32) {
	t.Helper()
	prog := ex.Program
	for i := at; i+1 < len(ex.Rows); i++ {
		env := witnessEnv{word: witnessWord(prog, &ex.Rows[i], &ex.Rows[i+1])}
		if i == at {
			env.word = word
		}
		if _, err := step(prog, &ex.Rows[i], &ex.Rows[i+1], &env); err != nil {
			t.Fatal(err)
		}
	}
	ex.Journal = ex.Journal[:0]
	for i := range ex.Rows {
		if in := prog.Instrs[ex.Rows[i].PC]; in.Op == OpEcall && in.Imm == SysJournal {
			ex.Journal = append(ex.Journal, ex.Rows[i].Regs[R1])
		}
	}
}

// TestMemoryForgeriesRejected seals each forgery the argument names —
// a lied load, a forged PrevTs, a wrong final value, a duplicated final
// address — with every other rule kept, under enough checks that
// sampling covers every relation, and requires the verifier to reject
// it by the rule that names it. The forged PrevTs and the duplicated
// address balance the products: only their local rule catches them.
func TestMemoryForgeriesRejected(t *testing.T) {
	prog := forgeProgram()
	seal := func(seg *segmentExecution) error {
		sub := deriveSubSeed(&[32]byte{6}, "seg", 0)
		sr, err := proveSegmentSeeded(seg, ProveOptions{Checks: 3000}, &sub, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return Verify(prog, &Receipt{Segments: []*SegmentReceipt{sr}}, VerifyOptions{})
	}
	honest := func() *segmentExecution {
		ex, err := Execute(prog, nil, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return finalSegment(ex)
	}
	if err := seal(honest()); err != nil {
		t.Fatalf("honest run: %v", err)
	}
	loadStep := func(seg *segmentExecution, entry int) int {
		for i := range seg.ex.Rows {
			if int(seg.ex.Rows[i].MemPtr) == entry {
				return i
			}
		}
		t.Fatalf("no step issues entry %d", entry)
		return 0
	}
	for _, c := range []struct {
		name, rule string
		forge      func(seg *segmentExecution)
	}{
		{"lied load", "do not balance", func(seg *segmentExecution) {
			// Entry 1 reads 99: (600, 99, 1) was never written.
			lieAt(t, seg.ex, loadStep(seg, 1), 99)
			seg.ex.MemLog[1].Val, seg.ex.MemLog[1].PrevVal = 99, 99
		}},
		{"forged PrevTs", "reads a tuple of time 3", func(seg *segmentExecution) {
			// Entry 2 reads its own write, (600, 77, 3): a cycle. The write
			// of entry 1 goes unread, and the final table takes it.
			seg.ex.MemLog[2].PrevTs = 3
			seg.exitImg[0].Ts = 2
		}},
		{"wrong final value", "do not balance", func(seg *segmentExecution) {
			seg.exitImg[1].Val = 5
		}},
		{"duplicated final address", "out of address order", func(seg *segmentExecution) {
			// Entry 2 claims word 600 fresh, and loads its zero: a second
			// chain of accesses to 600, whose last write the final table
			// records beside the first chain's.
			lieAt(t, seg.ex, loadStep(seg, 2), 0)
			seg.ex.MemLog[2] = MemEntry{Addr: 600}
			seg.exitImg = append([]imageRecord{{Addr: 600, Val: 77, Ts: 2}, {Addr: 600, Val: 0, Ts: 3}}, seg.exitImg[1:]...)
		}},
	} {
		seg := honest()
		c.forge(seg)
		if err := seal(seg); err == nil || !strings.Contains(err.Error(), c.rule) {
			t.Errorf("%s: %v, want a rejection mentioning %q", c.name, err, c.rule)
		}
	}
}

// blockForgeProgram stores 77, 78, … at words 600..606 and then loads
// 603, 600, 601, 602 and 604, journalling their sum. Its log is
//
//	0..6:  store 600+i = 77+i   writes (600+i, 77+i, i+1)
//	7:     load 603             reads (603, 80, 4)     writes (603, 80, 8)
//	8..11: load 600, 601, 602, 604
//
// in three blocks — entry 7 is block 1's last, entry 9 block 2's
// second — and its final table holds words 600..606, block 0 ending at
// 603.
func blockForgeProgram() *Program {
	return asm(func(a *Assembler) {
		a.Li(R5, 600)
		for i := uint32(0); i < 7; i++ {
			a.Li(R4, 77+i)
			a.Sw(R4, R5, i)
		}
		a.Li(R9, 0)
		for _, off := range []uint32{3, 0, 1, 2, 4} {
			a.Lw(R6, R5, off)
			a.Add(R9, R9, R6)
		}
		a.WriteJournal(R9)
		a.HaltCode(0)
	})
}

// TestBlockForgeriesRejected seals the forgeries that sit in a block
// away from its first record — each breaking a rule that only that
// record shows — with every other rule kept, under enough checks that
// sampling covers every block step, and requires the verifier to reject
// each by the rule that names it. All three balance the products.
func TestBlockForgeriesRejected(t *testing.T) {
	prog := blockForgeProgram()
	seal := func(seg *segmentExecution) error {
		sub := deriveSubSeed(&[32]byte{7}, "seg", 0)
		sr, err := proveSegmentSeeded(seg, ProveOptions{Checks: 3000}, &sub, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return Verify(prog, &Receipt{Segments: []*SegmentReceipt{sr}}, VerifyOptions{})
	}
	honest := func() *segmentExecution {
		ex, err := Execute(prog, nil, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.MemLog) != 12 {
			t.Fatalf("log of %d entries, want 12", len(ex.MemLog))
		}
		return finalSegment(ex)
	}
	if err := seal(honest()); err != nil {
		t.Fatalf("honest run: %v", err)
	}
	step := func(seg *segmentExecution, entry int) int {
		rows := seg.ex.Rows
		for i := 0; i+1 < len(rows); i++ {
			if int(rows[i].MemPtr) <= entry && entry < int(rows[i+1].MemPtr) {
				return i
			}
		}
		t.Fatalf("no step issues entry %d", entry)
		return 0
	}
	for _, c := range []struct {
		name, rule string
		forge      func(seg *segmentExecution)
	}{
		{"load in the middle of a block", "the word held 78", func(seg *segmentExecution) {
			// Entry 9 loads 99 from word 601, which held 78, and leaves 99
			// there: its write, (601, 99, 10), is the final record.
			lieAt(t, seg.ex, step(seg, 9), 99)
			seg.ex.MemLog[9].Val = 99
			seg.exitImg[1].Val = 99
		}},
		{"PrevTs at a block's last entry", "reads a tuple of time 8", func(seg *segmentExecution) {
			// Entry 7 reads its own write, (603, 80, 8): the store of entry 3
			// goes unread, and the final table takes it.
			seg.ex.MemLog[7].PrevTs = 8
			seg.exitImg[3].Ts = 4
		}},
		{"duplicated address across a leaf boundary", "out of address order: 603 after 603", func(seg *segmentExecution) {
			// Entry 7 claims word 603 fresh and loads its zero: a second
			// chain of accesses to 603, whose record lands first in block 1
			// while the first chain's, the unread store, ends block 0.
			lieAt(t, seg.ex, step(seg, 7), 0)
			seg.ex.MemLog[7] = MemEntry{Addr: 603}
			img := seg.exitImg
			seg.exitImg = append(append(slices.Clone(img[:3]), imageRecord{Addr: 603, Val: 80, Ts: 4}, imageRecord{Addr: 603, Ts: 8}), img[4:]...)
		}},
	} {
		seg := honest()
		c.forge(seg)
		if err := seal(seg); err == nil || !strings.Contains(err.Error(), c.rule) {
			t.Errorf("%s: %v, want a rejection mentioning %q", c.name, err, c.rule)
		}
	}
}

// blockRig is a log, a final table and an entry image committed with
// their product columns as commitTrace commits them, except that a test
// may tamper with a column — its elements, or the image whose blocks'
// last addresses the final column carries — before the commit. Its
// verifier reads the committed leaves, so each rule of a block step can
// be run on committed data that breaks it and nothing else.
type blockRig struct {
	v                *segmentVerifier
	ch               challenges
	ops              [numTrees]opener
	logCol, finalCol []field.Elem
}

func newBlockRig(t *testing.T, log []MemEntry, final, entry []imageRecord, tamper func(r *blockRig, addrs []imageRecord)) *blockRig {
	t.Helper()
	r := &blockRig{ch: newChallenges(field.New(12345), field.New(987654321))}
	salts := newSalter(&[32]byte{4})
	r.logCol, r.finalCol = logColumn(log, &r.ch, 2), imageColumn(final, &r.ch, false)
	initCol := imageColumn(entry, &r.ch, true)
	addrs := slices.Clone(final)
	if tamper != nil {
		tamper(r, addrs)
	}
	finalProd := columnTable(salts, treeFinalProd, addrs, nil)
	finalProd.prods = r.finalCol
	tabs := [numTrees]*table{
		proofExec: rowTable(salts, blockForgeProgram(), []Row{{}}), proofMem: memTable(salts, log),
		proofLogProd: prodTable(salts, treeLogProd, r.logCol), proofFinal: imageTable(salts, final),
		proofFinalProd: finalProd, proofEntry: imageTable(newSalter(&[32]byte{5}), entry),
		proofInitProd: prodTable(salts, treeInitProd, initCol),
	}
	commitTables(1, nil, tabs[:]...)
	for k, tab := range tabs {
		r.ops[k].t = tab
		t.Cleanup(tab.release)
	}
	sr := &SegmentReceipt{
		Entry: SegmentState{MemLen: uint32(len(entry)), MemRoot: tabs[proofEntry].tree.Root()},
		Seal: Seal{NumMem: uint32(len(log)), NumFinal: uint32(len(final)),
			MemRoot: tabs[proofMem].tree.Root(), LogProdRoot: tabs[proofLogProd].tree.Root(),
			FinalRoot: tabs[proofFinal].tree.Root(), FinalProdRoot: tabs[proofFinalProd].tree.Root(),
			InitProdRoot: tabs[proofInitProd].tree.Root()},
	}
	s := &sr.Seal
	s.Log = openEnds(&r.ops[proofMem], &r.ops[proofLogProd])
	s.Final = openEnds(&r.ops[proofFinal], &r.ops[proofFinalProd])
	s.Init = openEnds(&r.ops[proofEntry], &r.ops[proofInitProd])
	r.v = &segmentVerifier{SegmentReceipt: sr}
	return r
}

// walk runs the ends and every block step of the mem, final and init
// families on the rig's committed leaves, then requires the multiproofs
// of every leaf they read to authenticate: what a rule rejects was
// committed. It returns the first rule broken.
func (r *blockRig) walk(t *testing.T) error {
	t.Helper()
	err := r.v.verifyEnds(&r.ch)
	for _, f := range []struct {
		recs, prods int
		check       func(c *ProdCheck, j int, ch *challenges) error
	}{
		{proofMem, proofLogProd, r.v.verifyMemCheck},
		{proofFinal, proofFinalProd, r.v.verifyFinalCheck},
		{proofEntry, proofInitProd, r.v.verifyInitCheck},
	} {
		for j := 0; j+1 < r.ops[f.prods].t.n; j++ {
			c := ProdCheck{Record: r.ops[f.recs].open(j + 1), Prods: r.ops[f.prods].openSpan(j, j+2)}
			if e := f.check(&c, j, &r.ch); e != nil && err == nil {
				err = fmt.Errorf("block step %d: %v", j, e)
			}
		}
	}
	for k := range r.ops {
		var leaves []int
		for _, o := range r.v.opened[k] {
			leaves = append(leaves, o.Index)
		}
		if len(leaves) > 0 {
			slices.Sort(leaves)
			p, e := r.ops[k].t.tree.ProveMulti(slices.Compact(leaves))
			if e != nil {
				t.Fatal(e)
			}
			r.v.Proofs[k] = p
		}
	}
	if e := r.v.authenticate(); e != nil {
		t.Fatalf("the rig's openings do not authenticate: %v", e)
	}
	return err
}

// TestBlockStepRules runs each rule of a block step on committed data
// that breaks it and keeps every other local rule: a forged entry in
// the middle of a block (the column stepping over the honest entry), a
// forged PrevTs at a block's last entry, a duplicated final address
// across a leaf boundary, a lastAddr that lies (in block 0, read by the
// ends, and in block 1, by a final check), and a wrong first element —
// the log's column scaled throughout, so that every step holds and only
// g_0 does not.
func TestBlockStepRules(t *testing.T) {
	ex, err := Execute(blockForgeProgram(), nil, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seg := finalSegment(ex)
	log, final := ex.MemLog, seg.exitImg
	// An entry image of five zero words, in two blocks: read at time
	// zero, each is the virtual tuple, so the log and final table balance
	// without it.
	entry := []imageRecord{{Addr: 1}, {Addr: 2, Ts: 3}, {Addr: 7}, {Addr: 9, Ts: 1}, {Addr: 11}}
	if err := newBlockRig(t, log, final, entry, nil).walk(t); err != nil {
		t.Fatalf("honest tables: %v", err)
	}
	forged := slices.Clone(log)
	forged[9].Val, forged[9].PrevVal = 99, 99
	// The forgeries of TestBlockForgeriesRejected, which balance.
	selfRead, selfReadFinal := slices.Clone(log), slices.Clone(final)
	selfRead[7].PrevTs, selfReadFinal[3].Ts = 8, 4
	dupLog := slices.Clone(log)
	dupLog[7] = MemEntry{Addr: 603}
	dup := append(append(slices.Clone(final[:3]), imageRecord{Addr: 603, Val: 80, Ts: 4}, imageRecord{Addr: 603, Ts: 8}), final[4:]...)
	for _, c := range []struct {
		name, rule string
		log        []MemEntry
		final      []imageRecord
		tamper     func(r *blockRig, addrs []imageRecord)
	}{
		{"entry in the middle of a block", "block step 1: product step incorrect", forged, final, func(r *blockRig, _ []imageRecord) {
			// The column steps over the honest entry 9, not the forged one.
			field.Slabs.Put(r.logCol)
			r.logCol = logColumn(log, &r.ch, 2)
		}},
		{"PrevTs at a block's last entry", "block step 0: log entry 7 reads a tuple of time 8", selfRead, selfReadFinal, nil},
		{"duplicated address across a leaf boundary", "block step 0: final table out of address order: 603 after 603", dupLog, dup, nil},
		{"lastAddr of block 0", "final block 0 ends at address 603, its column says 604", log, final, func(_ *blockRig, addrs []imageRecord) {
			addrs[3].Addr = 604
		}},
		{"lastAddr of block 1", "block step 0: final block 1 ends at address 606, its column says 607", log, final, func(_ *blockRig, addrs []imageRecord) {
			addrs[6].Addr = 607
		}},
		{"wrong g_0", "log products: first product incorrect", log, final, func(r *blockRig, _ []imageRecord) {
			for j := range r.logCol {
				r.logCol[j] = field.Mul(r.logCol[j], field.New(3))
			}
		}},
	} {
		err := newBlockRig(t, c.log, c.final, entry, c.tamper).walk(t)
		if err == nil || !strings.Contains(err.Error(), c.rule) {
			t.Errorf("%s: %v, want a rejection mentioning %q", c.name, err, c.rule)
		}
	}
}

// accessProgram turns fuzz bytes into loads and stores over a
// sixteen-word window, two bytes an access: the low bit of the first
// picks a load or a store, the rest of it the word, the second the value
// stored (zero among them).
func accessProgram(data []byte) *Program {
	return asm(func(a *Assembler) {
		for i := 0; i+1 < len(data); i += 2 {
			a.Li(R5, 1000+uint32(data[i]>>1&15))
			if data[i]&1 == 0 {
				a.Lw(R6, R5, 0)
			} else {
				a.Li(R6, uint32(data[i+1])*0x01010101)
				a.Sw(R6, R5, 0)
			}
		}
		a.HaltCode(0)
	})
}

// memoryRules checks one segment's log and final table against the
// argument's local rules — every entry well formed at its position,
// issued in the direction of the step that issued it, the final table
// strictly increasing — and then against the prover's block columns,
// scanned at width under ch: every block step, block 0's from one,
// written out longhand from the block's records, and the balance of the
// columns' last elements. It returns the first rule broken, or "" if
// none is.
func memoryRules(seg *segmentExecution, ch *challenges, width int) string {
	ex := seg.ex
	for i := 0; i+1 < len(ex.Rows); i++ {
		in := ex.Program.Instrs[ex.Rows[i].PC]
		for p := ex.Rows[i].MemPtr; p < ex.Rows[i+1].MemPtr; p++ {
			if ex.MemLog[p].IsWrite != (in.Op == OpSw) {
				return "direction"
			}
		}
	}
	var b [memBytes]byte
	for i := range ex.MemLog {
		encodeMemEntryInto(b[:], &ex.MemLog[i])
		if _, err := logEntry(b[:], i); err != nil {
			return "entry"
		}
	}
	for j, r := range seg.exitImg {
		if j > 0 && r.Addr <= seg.exitImg[j-1].Addr {
			return "order"
		}
	}
	// steps holds col to its block steps: element j is element j-1 (one
	// before block 0) times num/den of block j's records.
	steps := func(col []field.Elem, n int, factors func(i int) (num, den field.Elem)) bool {
		prev := field.One
		for j := range col {
			num, den := field.One, field.One
			for i := j * leafRecords; i < min((j+1)*leafRecords, n); i++ {
				fn, fd := factors(i)
				num, den = field.Mul(num, fn), field.Mul(den, fd)
			}
			if field.Mul(col[j], den) != field.Mul(prev, num) {
				return false
			}
			prev = col[j]
		}
		return len(col) == blocks(n)
	}
	logCol := logColumn(ex.MemLog, ch, width)
	defer field.Slabs.Put(logCol)
	finalCol := imageColumn(seg.exitImg, ch, false)
	defer field.Slabs.Put(finalCol)
	initCol := imageColumn(seg.entryImg, ch, true)
	defer field.Slabs.Put(initCol)
	if !steps(logCol, len(ex.MemLog), func(i int) (field.Elem, field.Elem) {
		return ch.write(&ex.MemLog[i], i), ch.read(&ex.MemLog[i])
	}) || !steps(finalCol, len(seg.exitImg), func(i int) (field.Elem, field.Elem) {
		r := seg.exitImg[i]
		return ch.factor(r.Addr, r.Val, r.Ts), field.One
	}) || !steps(initCol, len(seg.entryImg), func(i int) (field.Elem, field.Elem) {
		r := seg.entryImg[i]
		return ch.factor(r.Addr, r.Val, 0), field.One
	}) {
		return "step"
	}
	last := func(col []field.Elem) field.Elem {
		if len(col) == 0 {
			return field.One
		}
		return col[len(col)-1]
	}
	if field.Mul(last(logCol), last(initCol)) != last(finalCol) {
		return "balance"
	}
	return ""
}

// FuzzMemoryCheck runs fuzzed access sequences through the machine,
// whole or cut into segments, and holds every segment's honest log and
// final table to the argument's rules: each entry reads no tuple of its
// own time or later, the final table is strictly ordered, the prover's
// block columns — scanned at a GOMAXPROCS of 1, 2, 4 or 7 the input
// picks — step block by block as the longhand products say, and they
// balance against the entry image. Then it changes one field of one
// entry or final record, chosen by the input, and requires that some
// rule breaks. The challenges are a hash of the input, which the fuzzer
// does not choose, as Fiat–Shamir's are not the prover's.
func FuzzMemoryCheck(f *testing.F) {
	f.Add([]byte{1, 7, 0, 0, 3, 0, 2, 0, 0, 0}, uint8(0), uint16(1), uint8(1), uint32(1))
	f.Add([]byte{1, 5, 1, 0, 0, 0, 0, 0, 5, 9, 4, 0, 31, 2, 30, 0}, uint8(1), uint16(3), uint8(3), uint32(0x80000000))
	f.Add(append(make([]byte, 80), 1, 1, 3, 3, 5, 5, 0, 0, 2, 2, 4, 4), uint8(1), uint16(40), uint8(9), uint32(0xffffffff))
	f.Fuzz(func(t *testing.T, data []byte, cut uint8, target uint16, which uint8, mask uint32) {
		if len(data) > 600 {
			data = data[:600]
		}
		segCycles := 0
		if cut&1 == 1 {
			segCycles = minSegmentCycles
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gomaxprocs[cut>>1&3]))
		segs, err := executeSegmented(accessProgram(data), nil, ExecOptions{}, segCycles)
		if err != nil {
			t.Fatal(err)
		}
		defer releaseSegments(segs)
		h := sha256.Sum256(data)
		ch := newChallenges(field.New(binary.LittleEndian.Uint64(h[:])), field.New(binary.LittleEndian.Uint64(h[8:])))
		for s, seg := range segs {
			for i := range seg.ex.MemLog {
				if ch.read(&seg.ex.MemLog[i]) == 0 {
					return // gamma is a read tuple's fingerprint: probability m/p
				}
			}
			if broken := memoryRules(seg, &ch, par.Workers()); broken != "" {
				t.Fatalf("segment %d: the honest machine breaks the %s rule", s, broken)
			}
		}
		if mask == 0 {
			mask = 1
		}
		seg := segs[int(target)%len(segs)]
		m, f := len(seg.ex.MemLog), len(seg.exitImg)
		if m+f == 0 {
			return
		}
		k := int(target) / len(segs) % (m + f)
		var what string
		if k < m {
			e := &seg.ex.MemLog[k]
			switch which % 5 {
			case 0:
				e.Addr ^= mask
			case 1:
				e.Val ^= mask
			case 2:
				e.PrevVal ^= mask
			case 3:
				e.PrevTs ^= mask
			case 4:
				e.IsWrite = !e.IsWrite
			}
			what = "entry"
		} else {
			seg.exitImg = append([]imageRecord(nil), seg.exitImg...)
			r := &seg.exitImg[k-m]
			switch which % 3 {
			case 0:
				r.Addr ^= mask
			case 1:
				r.Val ^= mask
			case 2:
				r.Ts ^= mask
			}
			what = "final record"
		}
		if memoryRules(seg, &ch, par.Workers()) == "" {
			t.Fatalf("field %d of %s %d changed by %#x, and every rule holds", which, what, k, mask)
		}
	})
}
