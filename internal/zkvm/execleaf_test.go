package zkvm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"

	"zkflow/internal/merkle"
	"zkflow/internal/transcript"
)

// This file tests the exec leaf of formats v3 and v4 — one row and a witness word
// per further row — from both sides: that what the prover encodes
// expands back to the rows it stood for, that nothing else expands at
// all, that expanding costs a step per row whatever the leaf claims, and
// that a lie the leaf can tell is one the sampled replay catches.

// stepKinds names the steps whose successor a leaf must be able to
// derive: everything that takes a word from outside the machine state,
// everything that puts one out, and both ways a branch can go.
var stepKinds = []string{"lw", "lw-r0", "sys-read", "sys-hash", "sys-journal", "branch-taken", "branch-untaken"}

func stepKind(prog *Program, cur, next *Row) string {
	in := &prog.Instrs[cur.PC]
	switch in.Op {
	case OpLw:
		if in.Rd == 0 {
			return "lw-r0"
		}
		return "lw"
	case OpBeq, OpBne, OpBltu, OpBgeu:
		if next.PC == cur.PC+1 {
			return "branch-untaken"
		}
		return "branch-taken"
	case OpEcall:
		return map[uint32]string{SysRead: "sys-read", SysHash: "sys-hash", SysJournal: "sys-journal"}[in.Imm]
	}
	return ""
}

// checkExecLeaves runs the guest — uncut at cut 0, else cut every cut
// rows — and requires of every exec leaf of every segment that
// expanding what the prover encodes gives back exactly the rows it
// encoded, through the column accessor the verifier uses. It reports
// the kinds of step that were derived, not committed, somewhere.
func checkExecLeaves(prog *Program, input []uint32, cut int) (map[string]bool, error) {
	segs, err := executeSegmented(prog, input, ExecOptions{}, cut)
	if err != nil {
		return nil, err
	}
	defer releaseSegments(segs)
	derived := map[string]bool{}
	for _, seg := range segs {
		rows := seg.ex.Rows
		tab := rowTable(newSalter(&[32]byte{1}), prog, rows)
		var buf [maxLeafBytes]byte
		for j := 0; j < tab.leaves(); j++ {
			lo, hi := j*leafRecords, min((j+1)*leafRecords, len(rows))
			n := tab.encodeLeaf(j, buf[:])
			if n != execLeafBytes(hi-lo) {
				return nil, fmt.Errorf("segment %d leaf %d of %d rows: %d bytes", seg.index, j, hi-lo, n)
			}
			var got [leafRecords]Row
			if err := expandExecLeaf(prog, buf[:n], got[:hi-lo]); err != nil {
				return nil, fmt.Errorf("segment %d leaf %d: %v", seg.index, j, err)
			}
			for i := lo; i < hi; i++ {
				if got[i-lo] != rows[i] {
					return nil, fmt.Errorf("segment %d row %d: leaf expands to %+v, trace has %+v", seg.index, i, got[i-lo], rows[i])
				}
				if i > lo {
					derived[stepKind(prog, &rows[i-1], &rows[i])] = true
				}
			}
		}
	}
	return derived, nil
}

// everyStepProgram takes each kind of step once per turn of a loop —
// it reads, stores, loads (into r0 too), branches
// both ways, hashes and journals — behind pad no-ops, which shift where
// in their leaves the steps fall.
func everyStepProgram(pad int) *Program {
	return asm(func(a *Assembler) {
		for range pad {
			a.Nop()
		}
		a.ReadInput(R9)
		a.Label("loop")
		a.Beq(R9, R0, "done") // untaken until the last turn
		a.ReadInput(R4)
		a.Add(R4, R4, R1)
		a.Li(R5, 600)
		a.Sw(R4, R5, 0)
		a.Lw(R6, R5, 0)
		a.Lw(R0, R5, 0)
		a.Bne(R6, R4, "done") // never taken
		a.Li(R8, 1)
		a.Li(R3, 700)
		a.Mov(R1, R5)
		a.Mov(R2, R8)
		a.Ecall(SysHash)
		a.Lw(R7, R3, 3)
		a.WriteJournal(R7)
		a.Addi(R9, R9, 0xffffffff)
		a.J("loop")
		a.Label("done")
		a.HaltCode(0)
	})
}

// TestExecLeafRoundTrip: encode → expand is the identity on the rows of
// a real trace, mono and segmented, short last leaf included, and every
// kind of step is among those derived. The same over every guest of
// internal/guest is TestGuestExecLeavesRoundTrip.
func TestExecLeafRoundTrip(t *testing.T) {
	tails, derived := map[int]bool{}, map[string]bool{}
	for pad := range leafRecords {
		prog, input := everyStepProgram(pad), []uint32{9, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		ex, err := Execute(prog, input, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tails[len(ex.Rows)%leafRecords] = true
		for _, cut := range []int{0, 64, 67} {
			got, err := checkExecLeaves(prog, input, cut)
			if err != nil {
				t.Fatalf("pad %d, cut %d: %v", pad, cut, err)
			}
			for k := range got {
				derived[k] = true
			}
		}
	}
	for _, k := range stepKinds {
		if !derived[k] {
			t.Errorf("no leaf derived the successor of a %s step", k)
		}
	}
	if len(tails) != leafRecords {
		t.Errorf("last leaves of %v rows mod %d: want every length", tails, leafRecords)
	}
	for _, run := range []struct {
		prog  *Program
		input []uint32
	}{{sumProgram(), sumInput(24)}, {segTestProgram(t), []uint32{300, 9}}, {loopProgram(), []uint32{500}}} {
		for _, cut := range []int{0, 64, 1000} {
			if _, err := checkExecLeaves(run.prog, run.input, cut); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// execLeaves returns every stride-th exec leaf the prover would commit
// for the monolithic run of the guest.
func execLeaves(prog *Program, input []uint32, stride int) ([][]byte, error) {
	ex, err := Execute(prog, input, ExecOptions{})
	if err != nil {
		return nil, err
	}
	var leaves [][]byte
	for lo := 0; lo < len(ex.Rows); lo += stride * leafRecords {
		leaves = append(leaves, leafAt(prog, ex.Rows, lo, min(leafRecords, len(ex.Rows)-lo)))
	}
	return leaves, nil
}

// checkHostileExecLeaf is the property FuzzExpandExecLeaf holds an
// arbitrary payload to, as a leaf of every row count: expanding it does
// not panic and allocates no more than error messages (and whatever else
// the process does meanwhile: the bound is 64 KB, the hash service would
// take up to 64 MB); what expands is exactly what the prover writes for
// those rows, none of which but the last sits on a halt or outside the
// program; and a payload of any other length than a leaf of that many
// rows has is rejected.
func checkHostileExecLeaf(prog *Program, leaf []byte) (err error) {
	if b := allocatedBytes(1, func() { err = checkExpansions(prog, leaf) }); err == nil && b > 64<<10 {
		err = fmt.Errorf("expanding %d bytes as a leaf of each row count allocated %d bytes", len(leaf), b)
	}
	return err
}

func checkExpansions(prog *Program, leaf []byte) error {
	for count := 0; count <= leafRecords; count++ {
		var rows [leafRecords]Row
		if expandExecLeaf(prog, leaf, rows[:count]) != nil {
			continue
		}
		if count == 0 || len(leaf) != execLeafBytes(count) {
			return fmt.Errorf("%d bytes expanded as a leaf of %d rows", len(leaf), count)
		}
		if again := leafAt(prog, rows[:], 0, count); !bytes.Equal(again, leaf) {
			return fmt.Errorf("leaf %x expands to rows that encode as %x", leaf, again)
		}
		for k := range count - 1 {
			if pc := rows[k].PC; pc >= uint32(len(prog.Instrs)) || prog.Instrs[pc].Op == OpHalt {
				return fmt.Errorf("row %d of %d, at pc %d, has a successor in the leaf", k, count, pc)
			}
		}
	}
	return nil
}

// leafAt is the leaf the prover would commit for count rows from row i.
func leafAt(prog *Program, rows []Row, i, count int) []byte {
	b := make([]byte, maxLeafBytes)
	return b[:encodeExecLeafInto(b, prog, rows[i:i+count])]
}

// stepAt is the index of the first row at or after from that sits on an
// instruction is accepts and is followed by another row.
func stepAt(t *testing.T, ex *Execution, from int, is func(*Instr) bool) int {
	t.Helper()
	for i := from; i+1 < len(ex.Rows); i++ {
		if is(&ex.Program.Instrs[ex.Rows[i].PC]) {
			return i
		}
	}
	t.Fatal("no such step in the trace")
	return 0
}

func isOp(op Op) func(*Instr) bool { return func(in *Instr) bool { return in.Op == op } }

// TestStrictExecLeaves: a leaf is accepted only if it is, byte for
// byte, what the prover writes for the rows it expands to. A word on a
// step that takes none, a word on a load into r0, a payload a word short
// or over, and a leaf that traps, halts or leaves the program before its
// last row are rejected — by the expansion, and by the column when such
// a leaf really is committed under the root.
func TestStrictExecLeaves(t *testing.T) {
	prog := everyStepProgram(0)
	ex, err := Execute(prog, []uint32{2, 41, 42}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows, last := ex.Rows, len(ex.Rows)-1
	var out [leafRecords]Row
	word := func(leaf []byte, k int, v uint32) []byte {
		leaf = bytes.Clone(leaf)
		binary.LittleEndian.PutUint32(leaf[rowBytes+4*k:], v)
		return leaf
	}
	add := stepAt(t, ex, 4, isOp(OpAdd))
	lw := stepAt(t, ex, 0, func(in *Instr) bool { return in.Op == OpLw && in.Rd != 0 })
	lw0 := stepAt(t, ex, 0, func(in *Instr) bool { return in.Op == OpLw && in.Rd == 0 })
	read := stepAt(t, ex, 1, func(in *Instr) bool { return in.Op == OpEcall && in.Imm == SysRead })
	hash := stepAt(t, ex, 0, func(in *Instr) bool { return in.Op == OpEcall && in.Imm == SysHash })

	// What a witness word is: the loaded value, the word read, zero.
	if w := leafAt(prog, rows, lw, 2)[rowBytes:]; binary.LittleEndian.Uint32(w) != rows[lw+1].Regs[R6] || rows[lw+1].Regs[R6] == 0 {
		t.Fatalf("witness of a load is %x, loaded %d", w, rows[lw+1].Regs[R6])
	}
	if w := leafAt(prog, rows, read, 2)[rowBytes:]; binary.LittleEndian.Uint32(w) != 41 {
		t.Fatalf("witness of an input read is %x, read 41", w)
	}
	for _, i := range []int{add, lw0, hash} {
		if w := leafAt(prog, rows, i, 2)[rowBytes:]; !bytes.Equal(w, []byte{0, 0, 0, 0}) {
			t.Fatalf("witness of step %d, which loads nothing into a register, is %x", i, w)
		}
	}

	hostile := rows[hash]
	hostile.Regs[R2] = maxHashWords + 1
	jump := Row{PC: uint32(len(prog.Instrs) - 4), Regs: [NumRegs]uint32{R9: 1}} // the Addi before "J loop"
	rejected := map[string]struct {
		leaf  []byte
		count int
	}{
		"word on an ALU step":              {word(leafAt(prog, rows, add, 2), 0, 1), 2},
		"word on a load into r0":           {word(leafAt(prog, rows, lw0, 2), 0, rows[lw+1].Regs[R6]), 2},
		"word on a hash":                   {word(leafAt(prog, rows, hash, 2), 0, 7), 2},
		"word on the third step":           {word(leafAt(prog, rows, add-2, 4), 2, 1), 4},
		"a word short":                     {leafAt(prog, rows, 0, 4)[:rowBytes+8], 4},
		"a word over":                      {append(leafAt(prog, rows, 0, 4), 0, 0, 0, 0), 4},
		"a byte short":                     {leafAt(prog, rows, 0, 4)[:rowBytes+11], 4},
		"no head row":                      {nil, 1},
		"halt before the last row":         {append(leafAt(prog, rows, last-1, 2), 0, 0, 0, 0), 3},
		"head row outside the program":     {leafAt(prog, []Row{{PC: uint32(len(prog.Instrs))}, {}}, 0, 2), 2},
		"oversized hash":                   {leafAt(prog, []Row{hostile, {}}, 0, 2), 2},
		"unknown ecall":                    {leafAt(asm(func(a *Assembler) { a.Ecall(99); a.Halt() }), []Row{{}, {}}, 0, 2), 2},
		"rows past the one the leaf holds": {leafAt(prog, rows, 0, 1), 0},
	}
	for name, c := range rejected {
		p := prog
		if name == "unknown ecall" {
			p = asm(func(a *Assembler) { a.Ecall(99); a.Halt() })
		}
		if err := expandExecLeaf(p, c.leaf, out[:c.count]); err == nil {
			t.Errorf("%s: expanded", name)
		}
	}
	// A pc that leaves the program mid-leaf: a Jalr out of it.
	out2 := asm(func(a *Assembler) { a.Jalr(R0, R5, 0); a.Halt() })
	head := Row{Regs: [NumRegs]uint32{R5: 9999}}
	far := make([]byte, maxLeafBytes)
	encodeRowInto(far, &head)
	if err := expandExecLeaf(out2, far[:rowBytes+4], out[:2]); err != nil || out[1].PC != 9999 {
		t.Fatalf("a jump out of the program as the leaf's last step: %v, pc %d", err, out[1].PC)
	}
	if err := expandExecLeaf(out2, far[:rowBytes+8], out[:3]); err == nil {
		t.Error("a row outside the program inside the leaf: expanded")
	}
	// Accepted, as controls: the canonical leaves, a zero word on a load
	// into r0, a step into the halt row, a branch out of a crafted head.
	for _, c := range []struct {
		leaf  []byte
		count int
	}{{leafAt(prog, rows, add-2, 4), 4}, {leafAt(prog, rows, lw0, 2), 2}, {leafAt(prog, rows, last-1, 2), 2}, {leafAt(prog, rows, last, 1), 1},
		{append(leafAt(prog, []Row{jump}, 0, 1), 0, 0, 0, 0, 0, 0, 0, 0), 3}} {
		if err := expandExecLeaf(prog, c.leaf, out[:c.count]); err != nil {
			t.Errorf("canonical leaf of %d rows rejected: %v", c.count, err)
		}
	}

	// The same through the column, with the non-canonical leaf committed
	// for real: its multiproof verifies and the leaf is still no leaf.
	j := add / leafRecords
	if add%leafRecords == leafRecords-1 {
		t.Fatal("pick an ALU step that is not the last of its leaf")
	}
	tab := rowTable(newSalter(&[32]byte{9}), prog, rows)
	hashes := make([]merkle.Hash, tab.leaves())
	for i := range hashes {
		hashes[i] = unfusedLeaf(tab, i)
	}
	forged := word(leafAt(prog, rows, j*leafRecords, leafRecords), add%leafRecords, 1)
	hashes[j] = saltedLeafHash(tab.salts.deriveSalt(treeExec, j), forged)
	tree := merkle.BuildHashes(hashes)
	proof, _ := tree.ProveMulti([]int{j})
	o := Opening{Index: j, Salt: tab.salts.deriveSalt(treeExec, j), Data: forged}
	col := column{root: tree.Root(), n: len(rows), recBytes: rowBytes, witnessed: true, opened: new([]*Opening)}
	if err := col.leaf(&o, j); err != nil {
		t.Fatalf("the forged leaf is not even a leaf: %v", err)
	}
	if err := col.authenticate(proof); err != nil {
		t.Fatalf("the forged leaf is not even committed: %v", err)
	}
	// The honest leaf beside it, at the same index, is caught by the
	// multiproof's one-payload-per-leaf rule.
	honestLeaf := tab.open(j)
	if err := col.leaf(&honestLeaf, j); err != nil {
		t.Fatal(err)
	}
	if err := col.authenticate(proof); err == nil || !strings.Contains(err.Error(), "opened twice") {
		t.Fatalf("leaf %d opened with two payloads: %v", j, err)
	}
	if _, err := col.rows(nil, prog, []Opening{o}, add, add+1); err == nil || !strings.Contains(err.Error(), "witness word") {
		t.Fatalf("committed leaf with a word on an ALU step: %v", err)
	}
	if _, err := col.rows(nil, prog, []Opening{o}, j*leafRecords, j*leafRecords+1); err == nil {
		t.Fatal("a non-canonical leaf gave up its head row")
	}
}

// allocatedBytes is what fn allocates per call, over runs calls.
func allocatedBytes(runs int, fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestHostileExecLeafIsCheap: the head row of an opened leaf is the
// prover's to choose, and no memory openings bound what it claims. A
// head row sitting on a SysHash of maxHashWords words — 64 MB to load
// and hash, were the service run — expands at the cost of any other:
// the witness env's hash returns at once, and step itself has no loop a
// register sets the length of.
func TestHostileExecLeafIsCheap(t *testing.T) {
	prog := asm(func(a *Assembler) {
		a.Label("again")
		a.Ecall(SysHash)
		a.J("again")
	})
	head := Row{Regs: [NumRegs]uint32{R1: 5, R2: maxHashWords, R3: 5}}
	leaf := leafAt(prog, []Row{head}, 0, 1)
	leaf = append(leaf, make([]byte, 4*(leafRecords-1))...)
	var rows [leafRecords]Row
	expand := func() {
		if err := expandExecLeaf(prog, leaf, rows[:]); err != nil {
			t.Fatal(err)
		}
	}
	expand()
	if rows[3].MemPtr != 2*(maxHashWords+8) || rows[3].PC != 1 {
		t.Fatalf("expanded to %+v", rows[3])
	}
	if allocs := testing.AllocsPerRun(100, expand); allocs > 1 {
		t.Fatalf("expanding a leaf costs %v allocations", allocs)
	}
	if b := allocatedBytes(100, expand); b > 64 {
		t.Fatalf("expanding a leaf of two %d-word hashes allocated %d bytes", maxHashWords, b)
	}
	// The emulator, for scale, really does the work: even a hash of 2^16
	// words, 1/256 of the leaf's, costs it more bytes than that many
	// words — a full-size one would log 2^24 accesses.
	const words = 1 << 16
	m := newMachine(prog, nil, neverCut)
	if b := allocatedBytes(1, func() { _ = m.hash(5, words, 5) }); b < 4*words {
		t.Fatalf("the machine hashed %d words in %d bytes", words, b)
	}
}

// sealedTables commits ex as the prover would and returns a verifier
// over the seal's roots and lengths, and openers over the tables, which
// stay open.
func sealedTables(t *testing.T, ex *Execution) (*segmentVerifier, *[numTrees]opener) {
	t.Helper()
	seg := finalSegment(ex)
	s := &Seal{NumRows: uint32(len(ex.Rows)), NumMem: uint32(len(ex.MemLog)), NumFinal: uint32(len(seg.exitImg))}
	tabs := commitTrace(seg, newSalter(&[32]byte{4}), 1, nil, transcript.New("test"), s, nil, nil)
	t.Cleanup(tabs.release)
	return &segmentVerifier{SegmentReceipt: &SegmentReceipt{Seal: *s}}, tabs.openers()
}

// TestTamperedWitnessCaught: the one lie an exec leaf can tell about a
// row it derives is the word a load or an input read brought in. A
// prover that commits a loaded value the memory log does not hold fails
// every exec check that lands on that load — the replay reads the log —
// and, having changed nothing else, passes the checks outside the leaf
// it poisoned; one that rewrites the log to match is caught by the
// memory argument. A wrong ALU result in a derived row has no encoding:
// the prover's own leaf does not contain it.
func TestTamperedWitnessCaught(t *testing.T) {
	prog, input := segTestProgram(t), []uint32{40, 3}
	honest, err := Execute(prog, input, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inLeaf := func(op Op) int { // a step of op whose successor is derived, not a head row
		for from := 20; ; from++ {
			if i := stepAt(t, honest, from, isOp(op)); (i+1)%leafRecords != 0 {
				return i
			}
		}
	}
	lw, add := inLeaf(OpLw), inLeaf(OpAdd)
	rd := prog.Instrs[honest.Rows[lw].PC].Rd

	ex, _ := Execute(prog, input, ExecOptions{})
	ex.Rows[lw+1].Regs[rd] ^= 0x10
	v, ops := sealedTables(t, ex)
	leafEnd := (lw/leafRecords+1)*leafRecords - 1 // the last row of the poisoned leaf
	failed := 0
	for i := 0; i+1 < len(ex.Rows); i++ {
		c := ExecCheck{
			Rows: ops[proofExec].openSpan(i, i+2),
			Mem:  ops[proofMem].openSpan(int(ex.Rows[i].MemPtr), int(ex.Rows[i+1].MemPtr)),
		}
		err := verifyExecCheck(prog, v, &c, i, ex.Journal)
		switch {
		case i == lw && (err == nil || !strings.Contains(err.Error(), "register file mismatch")):
			t.Fatalf("check on the load whose witness lies: %v", err)
		case (i < lw || i > leafEnd) && err != nil:
			t.Fatalf("check on row %d, outside the poisoned leaf (load at %d, leaf ends at %d): %v", i, lw, leafEnd, err)
		case err != nil:
			failed++
		}
	}
	if failed < 2 {
		t.Fatalf("%d checks failed: the load and the way out of its leaf should both", failed)
	}

	// The log rewritten to agree with the lie, and the loaded value dead
	// before its leaf ends, so that every replay passes: the log no
	// longer reads what was last written, and its products do not
	// balance against the final table.
	dead := asm(func(a *Assembler) {
		a.Li(R5, 600)
		a.Li(R4, 77)
		a.Sw(R4, R5, 0)
		a.Nop()
		a.Lw(R6, R5, 0) // row 4: its successor is derived
		a.Li(R6, 0)
		a.WriteJournal(R4)
		a.HaltCode(0)
	})
	ex, _ = Execute(dead, nil, ExecOptions{})
	ex.Rows[5].Regs[R6] ^= 0x10
	ex.MemLog[1].Val ^= 0x10
	ex.MemLog[1].PrevVal ^= 0x10
	r, err := proveExecutionSeeded(ex, ProveOptions{Checks: 3000}, &[32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(dead, r, VerifyOptions{}); err == nil || !strings.Contains(err.Error(), "do not balance") {
		t.Fatalf("a load of a value never stored: %v", err)
	}

	// An ALU result: the tampered trace seals to the honest receipt.
	seal := func(ex *Execution) []byte {
		r, err := proveExecutionSeeded(ex, ProveOptions{Checks: 16}, &[32]byte{8})
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ex, _ = Execute(prog, input, ExecOptions{})
	ex.Rows[add+1].Regs[prog.Instrs[ex.Rows[add].PC].Rd] ^= 0x10
	if !bytes.Equal(seal(ex), seal(honest)) {
		t.Fatal("a flipped ALU result in a derived row changed the receipt: the leaf expressed it")
	}
}

// TestExportedExecuteLeavesSlabPool: an execution handed to an external
// caller never comes back, so it must not be built on the slabs the last
// Prove left in the pool — the next Prove would fault in fresh ones.
func TestExportedExecuteLeavesSlabPool(t *testing.T) {
	if raceEnabled {
		t.Skip("slab pool misses are random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool,
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // and a slab parked on another P is out of reach
	prog, input := loopProgram(), []uint32{40_000}
	prove := func() {
		if _, err := Prove(prog, input, ProveOptions{Checks: 2}); err != nil {
			t.Fatal(err)
		}
	}
	prove()
	ex, err := Execute(prog, input, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slab := uint64(len(ex.Rows)) * uint64(unsafe.Sizeof(Row{}))
	if got := allocatedBytes(1, prove); got >= slab {
		t.Fatalf("the Prove after an Execute allocated %d bytes: a %d-byte row slab among them", got, slab)
	}
	runtime.KeepAlive(ex)
}

// TestOneStepForgeryFailsOneExecCheck settles what an exec check binds.
// The prover lies about the one word a load brings in and keeps every
// later row and the journal consistent with the lie; the memory log
// stays honest. Of all n-1 exec checks only the one on the load fails:
// a check on a neighbouring transition expands the same poisoned leaf,
// but the leaf derives its rows from its own witness words, and only
// the replay of the load reads the log. So an exec check binds one
// transition, not the B rows of its leaf, and a forgery of one step
// escapes k exec checks with probability (1-1/(n-1))^k.
func TestOneStepForgeryFailsOneExecCheck(t *testing.T) {
	prog := asm(func(a *Assembler) {
		a.Li(R5, 77)
		a.Sw(R5, R0, 600)
		a.Lw(R6, R0, 600)
		a.Addi(R7, R6, 1)
		a.WriteJournal(R7)
		a.HaltCode(0)
	})
	const lie = 1000
	ex, err := Execute(prog, nil, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lw := stepAt(t, ex, 0, isOp(OpLw))
	if lw/leafRecords != (lw+1)/leafRecords {
		t.Fatalf("the load's successor (row %d) must be derived inside its leaf", lw+1)
	}
	for i := lw; i+1 < len(ex.Rows); i++ {
		env := witnessEnv{word: witnessWord(prog, &ex.Rows[i], &ex.Rows[i+1])}
		if i == lw {
			env.word = lie
		}
		if _, err := step(prog, &ex.Rows[i], &ex.Rows[i+1], &env); err != nil {
			t.Fatal(err)
		}
	}
	ex.Journal = []uint32{lie + 1}

	v, ops := sealedTables(t, ex)
	for i := 0; i+1 < len(ex.Rows); i++ {
		c := ExecCheck{
			Rows: ops[proofExec].openSpan(i, i+2),
			Mem:  ops[proofMem].openSpan(int(ex.Rows[i].MemPtr), int(ex.Rows[i+1].MemPtr)),
		}
		err := verifyExecCheck(prog, v, &c, i, ex.Journal)
		if i == lw && (err == nil || !strings.Contains(err.Error(), "register file mismatch")) {
			t.Fatalf("check on the lying load (row %d): %v", i, err)
		}
		if i != lw && err != nil {
			t.Fatalf("check on row %d, not the load (row %d), failed: %v", i, lw, err)
		}
	}

	// Every other rule holds, so a seal whose sampled exec checks miss
	// the load verifies, and one whose checks hit it fails there.
	accepted, rejected := 0, 0
	for seed := byte(0); seed < 32; seed++ {
		r, err := proveExecutionSeeded(ex, ProveOptions{Checks: 2}, &[32]byte{seed})
		if err != nil {
			t.Fatal(err)
		}
		switch err := Verify(prog, r, VerifyOptions{}); {
		case err == nil:
			accepted++
		case strings.Contains(err.Error(), fmt.Sprintf("(row %d)", lw)):
			rejected++
		default:
			t.Fatalf("seed %d: rejected by another rule: %v", seed, err)
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("%d seals accepted, %d rejected at the load: want some of each", accepted, rejected)
	}
}
