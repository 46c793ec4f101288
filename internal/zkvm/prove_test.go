package zkvm

import (
	"bytes"
	"cmp"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// sumProgram builds a guest that reads n input words, stores them to
// memory, hashes the region, journals the running sum and the first
// digest word, then halts cleanly. It exercises every subsystem:
// input, memory, hashing, journal, branches.
func sumProgram() *Program {
	a := NewAssembler()
	a.Comment("r4 = n")
	a.ReadInput(R4)
	a.Li(R5, 0)    // i
	a.Li(R6, 0)    // sum
	a.Li(R7, 1000) // buffer base
	a.Label("loop")
	a.Beq(R5, R4, "done")
	a.ReadInput(R8)
	a.Add(R6, R6, R8)
	a.Add(R9, R7, R5)
	a.Sw(R8, R9, 0)
	a.Addi(R5, R5, 1)
	a.J("loop")
	a.Label("done")
	a.Comment("hash the buffer")
	a.Mov(R1, R7)
	a.Mov(R2, R4)
	a.Li(R3, 2000)
	a.Ecall(SysHash)
	a.WriteJournal(R6)
	a.Lw(R10, R0, 2000)
	a.WriteJournal(R10)
	a.HaltCode(0)
	return a.MustAssemble()
}

func sumInput(n int) []uint32 {
	in := make([]uint32, 0, n+1)
	in = append(in, uint32(n))
	for i := 0; i < n; i++ {
		in = append(in, uint32(i*7+1))
	}
	return in
}

func proveSum(t *testing.T, n int) (*Program, *Receipt) {
	t.Helper()
	prog := sumProgram()
	r, err := Prove(prog, sumInput(n), ProveOptions{Checks: 8})
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	checkEncoding(t, r)
	return prog, r
}

func TestProveVerifyRoundTrip(t *testing.T) {
	prog, r := proveSum(t, 16)
	if err := Verify(prog, r, VerifyOptions{}); err != nil {
		t.Fatalf("verify: %v", err)
	}
	want := uint32(0)
	for i := 0; i < 16; i++ {
		want += uint32(i*7 + 1)
	}
	if r.Segments[0].Journal[0] != want {
		t.Fatalf("journal sum %d, want %d", r.Segments[0].Journal[0], want)
	}
}

func TestVerifyRejectsWrongProgram(t *testing.T) {
	_, r := proveSum(t, 4)
	other := NewAssembler()
	other.HaltCode(0)
	if err := Verify(other.MustAssemble(), r, VerifyOptions{}); err == nil {
		t.Fatal("receipt verified under the wrong program")
	}
}

func TestVerifyRejectsTamperedJournal(t *testing.T) {
	prog, r := proveSum(t, 8)
	r.Segments[0].Journal[0]++
	if err := Verify(prog, r, VerifyOptions{}); err == nil {
		t.Fatal("tampered journal accepted")
	}
}

func TestVerifyRejectsTamperedExitCode(t *testing.T) {
	prog, r := proveSum(t, 4)
	r.Segments[0].ExitCode = 1
	if err := Verify(prog, r, VerifyOptions{}); err == nil {
		t.Fatal("tampered exit code accepted")
	}
	// Relabelling an aborted run as a clean exit contradicts its halt row.
	prog, aborted := abortedReceipt(t)
	aborted.Segments[0].ExitCode = 0
	if err := Verify(prog, aborted, VerifyOptions{}); err == nil {
		t.Fatal("aborted run verified as a clean exit")
	}
}

func TestVerifyRejectsTamperedRoots(t *testing.T) {
	prog, r := proveSum(t, 4)
	r.Segments[0].Seal.ExecRoot[0] ^= 1
	if err := Verify(prog, r, VerifyOptions{}); err == nil {
		t.Fatal("tampered exec root accepted")
	}
}

// TestVerifyErrorHasOnePrefix: a failure deep in a segment's seal reads
// "zkvm: receipt verification failed: segment i: …" — the prefix once,
// however many layers the failure passed through — and still matches
// ErrVerify.
func TestVerifyErrorHasOnePrefix(t *testing.T) {
	prog := segTestProgram(t)
	r := mustProve(t, prog, []uint32{300, 5}, ProveOptions{Checks: 4, SegmentCycles: 1 << 10})
	r.Segments[1].Seal.ExecRoot[0] ^= 1
	err := Verify(prog, r, VerifyOptions{})
	if !errors.Is(err, ErrVerify) {
		t.Fatalf("got %v, want ErrVerify", err)
	}
	if n := strings.Count(err.Error(), ErrVerify.Error()); n != 1 {
		t.Fatalf("prefix appears %d times: %v", n, err)
	}
	if !strings.HasPrefix(err.Error(), ErrVerify.Error()+": segment 1: ") {
		t.Fatalf("error does not name the segment: %v", err)
	}
}

func TestVerifyRejectsTamperedOpening(t *testing.T) {
	prog, r := proveSum(t, 4)
	if len(r.Segments[0].Seal.ExecChecks) == 0 {
		t.Fatal("no exec checks")
	}
	r.Segments[0].Seal.ExecChecks[0].Rows[0].Data[4]++ // mutate a register byte
	if err := Verify(prog, r, VerifyOptions{}); err == nil {
		t.Fatal("tampered opening accepted")
	}
}

func TestVerifyRejectsTruncatedChecks(t *testing.T) {
	prog, r := proveSum(t, 4)
	r.Segments[0].Seal.ExecChecks = r.Segments[0].Seal.ExecChecks[:1]
	if err := Verify(prog, r, VerifyOptions{}); err == nil {
		t.Fatal("truncated checks accepted")
	}
}

func TestGuestAbortRefusesToProve(t *testing.T) {
	a := NewAssembler()
	a.HaltCode(3)
	prog := a.MustAssemble()
	_, err := Prove(prog, nil, ProveOptions{})
	var abort *GuestAbortError
	if !errors.As(err, &abort) {
		t.Fatalf("want GuestAbortError, got %v", err)
	}
	if abort.ExitCode != 3 {
		t.Fatalf("exit code %d", abort.ExitCode)
	}
}

// proveExecutionSeeded seals an already-traced execution, whatever its
// exit code and however it was forged, as the one segment of a receipt:
// under the sub-seed ProveSeeded gives segment 0, so an honest execution
// seals to the bytes ProveSeeded(…, seed) does.
func proveExecutionSeeded(ex *Execution, opts ProveOptions, seed *[32]byte) (*Receipt, error) {
	sub := deriveSubSeed(seed, "seg", 0)
	sr, err := proveSegmentSeeded(finalSegment(ex), opts, &sub, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Receipt{Segments: []*SegmentReceipt{sr}}, nil
}

// finalSegment is ex as the one segment of a run entered at genesis,
// with the final table its log leaves: one record per address, the
// value and time of its last access, in address order — what the
// machine's page walk gives an honest log, written out from the log
// itself so that a forged log gets the table it implies.
func finalSegment(ex *Execution) *segmentExecution {
	last := map[uint32]int{}
	for i := range ex.MemLog {
		last[ex.MemLog[i].Addr] = i
	}
	final := make([]imageRecord, 0, len(last))
	for a, i := range last {
		final = append(final, imageRecord{Addr: a, Val: ex.MemLog[i].Val, Ts: uint32(i + 1)})
	}
	slices.SortFunc(final, func(x, y imageRecord) int { return cmp.Compare(x.Addr, y.Addr) })
	return &segmentExecution{ex: ex, final: true, entry: GenesisState(), exitImg: final}
}

// abortedReceipt seals a guest that halts with exit code 3. Prove
// refuses such a run, so it is sealed below the abort check.
func abortedReceipt(t *testing.T) (*Program, *Receipt) {
	t.Helper()
	a := NewAssembler()
	a.HaltCode(3)
	prog := a.MustAssemble()
	ex, err := Execute(prog, nil, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := proveExecutionSeeded(ex, ProveOptions{Checks: 4}, &[32]byte{3})
	if err != nil {
		t.Fatal(err)
	}
	return prog, r
}

// TestNonZeroExitReceiptRejected: a receipt of an aborted guest never
// verifies, however it was sealed.
func TestNonZeroExitReceiptRejected(t *testing.T) {
	prog, r := abortedReceipt(t)
	if err := Verify(prog, r, VerifyOptions{}); err == nil || !strings.Contains(err.Error(), "exit code 3") {
		t.Fatalf("nonzero exit: %v", err)
	}
}

func TestMinimalProgram(t *testing.T) {
	// Single halt instruction: one row, no memory log.
	a := NewAssembler()
	a.Halt() // exit code r1 = 0
	prog := a.MustAssemble()
	r, err := Prove(prog, nil, ProveOptions{Checks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Segments[0].Seal.NumRows != 1 || r.Segments[0].Seal.NumMem != 0 {
		t.Fatalf("rows=%d mem=%d", r.Segments[0].Seal.NumRows, r.Segments[0].Seal.NumMem)
	}
	if err := Verify(prog, r, VerifyOptions{}); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestNoMemoryProgram(t *testing.T) {
	a := NewAssembler()
	a.Li(R2, 1)
	a.Li(R3, 2)
	a.Add(R4, R2, R3)
	a.WriteJournal(R4)
	a.HaltCode(0)
	prog := a.MustAssemble()
	r, err := Prove(prog, nil, ProveOptions{Checks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Segments[0].Seal.NumMem != 0 {
		t.Fatalf("unexpected memory log of %d", r.Segments[0].Seal.NumMem)
	}
	if err := Verify(prog, r, VerifyOptions{}); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestSingleMemoryEntry(t *testing.T) {
	a := NewAssembler()
	a.Li(R2, 9)
	a.Li(R3, 5)
	a.Sw(R2, R3, 0)
	a.HaltCode(0)
	prog := a.MustAssemble()
	r, err := Prove(prog, nil, ProveOptions{Checks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Segments[0].Seal.NumMem != 1 {
		t.Fatalf("mem entries = %d", r.Segments[0].Seal.NumMem)
	}
	if err := Verify(prog, r, VerifyOptions{}); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestReceiptMarshalRoundTrip(t *testing.T) {
	prog, r := proveSum(t, 8)
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := UnmarshalReceipt(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(prog, r2, VerifyOptions{}); err != nil {
		t.Fatalf("decoded receipt failed verify: %v", err)
	}
	if r2.Size() != len(data) {
		t.Fatalf("Size()=%d, marshal=%d", r2.Size(), len(data))
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalReceipt([]byte("not a receipt")); err == nil {
		t.Fatal("garbage accepted")
	}
	prog, r := proveSum(t, 2)
	_ = prog
	data, _ := r.MarshalBinary()
	if _, err := UnmarshalReceipt(data[:len(data)-3]); err == nil {
		t.Fatal("truncated receipt accepted")
	}
	if _, err := UnmarshalReceipt(append(data, 0)); err == nil {
		t.Fatal("padded receipt accepted")
	}
}

func TestSealSizeMatchesEncoding(t *testing.T) {
	_, r := proveSum(t, 8)
	// SealSize is an accounting helper; it must at least be positive
	// and dominated by the receipt encoding.
	if r.SealSize() <= 0 || r.SealSize() > r.Size() {
		t.Fatalf("seal=%d receipt=%d", r.SealSize(), r.Size())
	}
}

func TestJournalGrowsLinearly(t *testing.T) {
	a := NewAssembler()
	a.ReadInput(R4)
	a.Li(R5, 0)
	a.Label("loop")
	a.Beq(R5, R4, "done")
	a.WriteJournal(R5)
	a.Addi(R5, R5, 1)
	a.J("loop")
	a.Label("done")
	a.HaltCode(0)
	prog := a.MustAssemble()
	r10, err := Prove(prog, []uint32{10}, ProveOptions{Checks: 4})
	if err != nil {
		t.Fatal(err)
	}
	r100, err := Prove(prog, []uint32{100}, ProveOptions{Checks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r100.JournalWords()) != 10*len(r10.JournalWords()) {
		t.Fatalf("journal sizes %d vs %d", len(r10.JournalWords()), len(r100.JournalWords()))
	}
}

// TestLeakageReport pins what the report counts: revealed records. An
// opened leaf gives away its whole block — an exec leaf, every row it
// expands to, not the one row it carries whole — so the count is the
// records of the distinct opened leaves, summed over the segments. Image
// words are counted per image: a boundary image is one segment's final
// table and the next one's entry image, and a record either opens is
// revealed once.
func TestLeakageReport(t *testing.T) {
	_, one := proveSum(t, 32)
	many := mustProve(t, segTestProgram(t), []uint32{300, 5}, ProveOptions{Checks: 8, SegmentCycles: 1 << 10})
	if many.NumSegments() < 2 {
		t.Fatalf("%d segments, want several", many.NumSegments())
	}
	for name, r := range map[string]*Receipt{"one segment": one, "segmented": many} {
		rep := Leakage(r)
		var rows, mems, words, leaves, want int
		for _, sr := range r.Segments {
			rows += int(sr.Seal.NumRows)
			mems += int(sr.Seal.NumMem)
			words += int(sr.Seal.NumFinal)
			l, w := openedRowLeaves(&sr.Seal)
			leaves, want = leaves+l, want+w
		}
		if rep.TotalRows != rows || rep.TotalMemEntries != mems || rep.TotalImageWords != words {
			t.Fatalf("%s: totals %d/%d/%d, seals have %d/%d/%d", name, rep.TotalRows, rep.TotalMemEntries, rep.TotalImageWords, rows, mems, words)
		}
		if rep.OpenedRows != want {
			t.Fatalf("%s: opened rows %d, the %d distinct opened leaves expand to %d", name, rep.OpenedRows, leaves, want)
		}
		if rep.OpenedRows <= 2*leaves || rep.OpenedRows > leafRecords*leaves {
			t.Fatalf("%s: opened rows %d from %d leaves of up to %d rows", name, rep.OpenedRows, leaves, leafRecords)
		}
		if rep.OpenedRows > rep.TotalRows || rep.OpenedMemEntries > rep.TotalMemEntries {
			t.Fatalf("%s: opened %d/%d of %d/%d", name, rep.OpenedRows, rep.OpenedMemEntries, rep.TotalRows, rep.TotalMemEntries)
		}
		if got := openedImageWords(r); rep.OpenedImageWords != got || got == 0 || got > words {
			t.Fatalf("%s: opened image words %d, the distinct opened image leaves hold %d of %d", name, rep.OpenedImageWords, got, words)
		}
		if rep.RowFraction != float64(rep.OpenedRows)/float64(rep.TotalRows) || rep.ImageFraction != float64(rep.OpenedImageWords)/float64(words) {
			t.Fatalf("%s: row fraction %f, image fraction %f", name, rep.RowFraction, rep.ImageFraction)
		}
		if rep.MemFraction <= 0 || rep.MemFraction > 1 {
			t.Fatalf("%s: mem fraction %f", name, rep.MemFraction)
		}
	}
}

// openedImageWords recounts a receipt's image openings by hand: image k
// is segment k's final table, opened by its Final ends and final checks,
// and segment k+1's entry image, opened by its Init ends and init
// checks; a distinct opened leaf reveals its payload's records.
func openedImageWords(r *Receipt) int {
	words := 0
	for k, sr := range r.Segments {
		opened := []*Opening{&sr.Seal.Final.Record}
		for i := range sr.Seal.FinalChecks {
			opened = append(opened, &sr.Seal.FinalChecks[i].Record)
		}
		if k+1 < len(r.Segments) {
			next := &r.Segments[k+1].Seal
			opened = append(opened, &next.Init.Record)
			for i := range next.InitChecks {
				opened = append(opened, &next.InitChecks[i].Record)
			}
		}
		leafWords := map[int]int{}
		for _, o := range opened {
			leafWords[o.Index] = len(o.Data) / imgBytes
		}
		for _, n := range leafWords {
			words += n
		}
	}
	return words
}

// openedRowLeaves recounts a seal's row openings by hand — FirstRow,
// LastRow, and each exec check's one or two leaves — and returns the
// number of distinct leaves and the rows they expand to: the head row
// and one per witness word.
func openedRowLeaves(s *Seal) (leaves, rows int) {
	opened := []*Opening{&s.FirstRow, &s.LastRow}
	for i := range s.ExecChecks {
		for j := range s.ExecChecks[i].Rows {
			opened = append(opened, &s.ExecChecks[i].Rows[j])
		}
	}
	leafRows := map[int]int{}
	for _, o := range opened {
		leafRows[o.Index] = 1 + (len(o.Data)-rowBytes)/4
	}
	for _, n := range leafRows {
		rows += n
	}
	return len(leafRows), rows
}

func TestSaltsHideUnopenedRows(t *testing.T) {
	// Two executions with identical public statements but different
	// private inputs must produce different commitments (salting) —
	// and both must verify.
	a := NewAssembler()
	a.ReadInput(R4) // private word, never journaled
	a.Li(R5, 600)
	a.Sw(R4, R5, 0)
	a.WriteJournal(R0)
	a.HaltCode(0)
	prog := a.MustAssemble()
	r1, err := Prove(prog, []uint32{111}, ProveOptions{Checks: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Prove(prog, []uint32{222}, ProveOptions{Checks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Segments[0].Seal.ExecRoot == r2.Segments[0].Seal.ExecRoot {
		t.Fatal("commitments equal across different salts/inputs")
	}
	for _, r := range []*Receipt{r1, r2} {
		if err := Verify(prog, r, VerifyOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestProveVerifiesAtEveryWidth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	prog := sumProgram()
	for _, width := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(width)
		r, err := Prove(prog, sumInput(32), ProveOptions{Checks: 4})
		if err != nil {
			t.Fatalf("parallelism=%d: %v", width, err)
		}
		if err := Verify(prog, r, VerifyOptions{}); err != nil {
			t.Fatalf("parallelism=%d verify: %v", width, err)
		}
	}
}

// forgeReceipt tries the classic memory attack: replay a stale value.
// We re-prove with a corrupted memory log and check that verification
// notices via the multiset/product machinery (or opening checks).
func TestForgedMemoryValueRejected(t *testing.T) {
	prog := sumProgram()
	ex, err := Execute(prog, sumInput(8), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one read value in the log (as if the prover lied about
	// what memory returned) and re-seal with many checks so sampling
	// hits the inconsistency with overwhelming probability.
	for i := range ex.MemLog {
		if !ex.MemLog[i].IsWrite {
			ex.MemLog[i].Val ^= 0xff
			break
		}
	}
	r, err := proveExecutionSeeded(ex, ProveOptions{Checks: 400}, &[32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(prog, r, VerifyOptions{}); err == nil {
		t.Fatal("forged memory value accepted")
	}
}

func TestForgedRegisterRejected(t *testing.T) {
	prog := sumProgram()
	ex, err := Execute(prog, sumInput(8), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Claim a different sum in the middle of the trace.
	mid := len(ex.Rows) / 2
	ex.Rows[mid].Regs[R6] += 100
	// Two of ~len(Rows) transitions are now inconsistent; 2000 samples
	// make the miss probability about e^-33.
	r, err := proveExecutionSeeded(ex, ProveOptions{Checks: 2000}, &[32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(prog, r, VerifyOptions{}); err == nil {
		t.Fatal("forged register accepted")
	}
}

func BenchmarkProveSum256(b *testing.B) {
	prog := sumProgram()
	in := sumInput(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Prove(prog, in, ProveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifySum256(b *testing.B) {
	prog := sumProgram()
	r, err := Prove(prog, sumInput(256), ProveOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(prog, r, VerifyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestProveSeededDeterministic pins the seeded prover on both of its
// paths: the same seed gives the same bytes, whole run or segmented.
func TestProveSeededDeterministic(t *testing.T) {
	prog, input := cutLoopProgram(t)
	seed := [32]byte{42}
	for _, opts := range []ProveOptions{{Checks: 4}, cutLoopOpts()} {
		r1, err := ProveSeeded(prog, input, opts, seed)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ProveSeeded(prog, input, opts, seed)
		if err != nil {
			t.Fatal(err)
		}
		b1, _ := r1.MarshalBinary()
		b2, _ := r2.MarshalBinary()
		if !bytes.Equal(b1, b2) {
			t.Fatalf("SegmentCycles=%d: ProveSeeded not deterministic", opts.SegmentCycles)
		}
		if err := VerifyAny(prog, r1, VerifyOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSoundnessReport pins the report's arithmetic and its families: a
// segment reports exec, mem and final, and init when it reads an entry
// image; each family's acceptance is (1 − 1/domain)^k over the domain
// its verifier samples — n−1 transitions of n rows, ceil(n/4)−1 block
// steps of a table of n records; the headline is the family with the
// fewest bits.
func TestSoundnessReport(t *testing.T) {
	many := mustProve(t, segTestProgram(t), []uint32{300, 5}, ProveOptions{Checks: 8, SegmentCycles: 1 << 10})
	rep := Soundness(many)
	seen := map[string]int{}
	for _, f := range rep.Families {
		seen[f.Family]++
		sr := many.Segments[f.Segment]
		var domain int
		switch f.Family {
		case "exec":
			domain = int(sr.Seal.NumRows) - 1
		case "mem":
			domain = (int(sr.Seal.NumMem)+3)/4 - 1
		case "final":
			domain = (int(sr.Seal.NumFinal)+3)/4 - 1
		case "init":
			domain = (int(sr.Entry.MemLen)+3)/4 - 1
		}
		want := math.Pow(1-1/float64(domain), 8)
		if f.Checks != 8 || f.Domain != domain || math.Abs(f.Accept-want) > 1e-12 || math.Abs(f.Bits+math.Log2(want)) > 1e-9 {
			t.Fatalf("%+v: want domain %d, k 8, accepting with %v", f, domain, want)
		}
		if f.Bits < rep.Headline.Bits {
			t.Fatalf("headline %+v is not the weakest: %+v", rep.Headline, f)
		}
	}
	n := many.NumSegments()
	if seen["exec"] != n || seen["mem"] != n || seen["final"] != n || seen["init"] != n-1 {
		t.Fatalf("families %v over %d segments", seen, n)
	}
}
