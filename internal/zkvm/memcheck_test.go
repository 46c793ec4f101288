package zkvm

import (
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"testing"

	"zkflow/internal/field"
)

// This file tests the offline memory argument of format v6 as the
// argument states it (DESIGN.md §8): a log whose entries read no tuple
// of their own time or later, a final table in strictly increasing
// address order, and ∏W·∏Init = ∏R·∏F. The honest machine's logs
// satisfy all of it; a lie about one field of one entry or final record
// breaks one of the rules; and each forgery the argument names is
// rejected by the verifier.

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
// strictly increasing — and then the balance under ch, and returns the
// first rule broken, or "" if none is.
func memoryRules(seg *segmentExecution, ch *challenges) string {
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
	logRatio := field.One
	for i := range ex.MemLog {
		encodeMemEntryInto(b[:], &ex.MemLog[i])
		if _, err := logEntry(b[:], i); err != nil {
			return "entry"
		}
		logRatio = field.Mul(logRatio, field.Div(ch.write(&ex.MemLog[i], i), ch.read(&ex.MemLog[i])))
	}
	final, init := field.One, field.One
	for j, r := range seg.exitImg {
		if j > 0 && r.Addr <= seg.exitImg[j-1].Addr {
			return "order"
		}
		final = field.Mul(final, ch.factor(r.Addr, r.Val, r.Ts))
	}
	for _, r := range seg.entryImg {
		init = field.Mul(init, ch.factor(r.Addr, r.Val, 0))
	}
	if field.Mul(logRatio, init) != final {
		return "balance"
	}
	return ""
}

// FuzzMemoryCheck runs fuzzed access sequences through the machine,
// whole or cut into segments, and holds every segment's honest log and
// final table to the argument's rules: each entry reads no tuple of its
// own time or later, the final table is strictly ordered, and the
// products balance against the entry image. Then it changes one field
// of one entry or final record, chosen by the input, and requires that
// some rule breaks. The challenges are a hash of the input, which the
// fuzzer does not choose, as Fiat–Shamir's are not the prover's.
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
			if broken := memoryRules(seg, &ch); broken != "" {
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
		if memoryRules(seg, &ch) == "" {
			t.Fatalf("field %d of %s %d changed by %#x, and every rule holds", which, what, k, mask)
		}
	})
}
