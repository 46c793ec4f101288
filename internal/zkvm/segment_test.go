package zkvm

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// segTestProgram builds a loop-based guest whose step count scales
// with the first input word: each iteration stores, loads, and
// accumulates over a 512-word working set, journaling a running
// checksum every 256 iterations, then hashes 16 words through the
// precompile and halts. Large iteration counts cross many segment
// boundaries with live memory, in-flight journal, and loop-carried
// registers.
func segTestProgram(t testing.TB) *Program {
	t.Helper()
	a := NewAssembler()
	a.ReadInput(3)  // r3 = iteration count
	a.ReadInput(11) // r11 = per-run salt, mixed into every value
	a.Li(2, 0)      // r2 = i
	a.Li(7, 0)      // r7 = acc
	a.Label("loop")
	a.Bgeu(2, 3, "done")
	a.Li(5, 2654435761)
	a.Mul(5, 5, 2)
	a.Add(5, 5, 11)
	a.Andi(4, 2, 511)
	a.Sw(5, 4, 0)
	a.Lw(6, 4, 0)
	a.Add(7, 7, 6)
	a.Andi(10, 2, 255)
	a.Bne(10, 0, "skipj")
	a.WriteJournal(7)
	a.Label("skipj")
	a.Addi(2, 2, 1)
	a.J("loop")
	a.Label("done")
	a.Li(5, 0)
	a.Li(6, 16)
	a.Li(8, 4096)
	a.Mov(1, 5)
	a.Mov(2, 6)
	a.Mov(3, 8)
	a.Ecall(SysHash)
	a.Lw(9, 8, 0)
	a.WriteJournal(9)
	a.WriteJournal(7)
	a.HaltCode(0)
	prog, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

var segTestSeed = [32]byte{0x5e, 0x67, 0x5e, 0x67, 11: 0xaa, 29: 0x3c}

func mustProve(t testing.TB, prog *Program, input []uint32, opts ProveOptions) *Receipt {
	t.Helper()
	c, err := ProveSeeded(prog, input, opts, segTestSeed)
	if err != nil {
		t.Fatal(err)
	}
	checkEncoding(t, c)
	return c
}

// executeSegmented runs the guest like Execute but cuts the trace
// every segmentCycles steps (floored to minSegmentCycles; zero never
// cuts), on pooled slabs: the caller releases the segments.
func executeSegmented(prog *Program, input []uint32, opts ExecOptions, segmentCycles int) ([]*segmentExecution, error) {
	m := newMachine(prog, input, segmentCycles)
	if err := m.run(opts.MaxSteps); err != nil {
		releaseSegments(m.segs)
		return nil, err
	}
	return m.segs, nil
}

// sealSegments seals a traced run whatever its exit code, after its
// execution rather than at each cut — the order ProveSeeded overlaps —
// and returns its slabs to the pools.
func sealSegments(segs []*segmentExecution, opts ProveOptions, seed [32]byte) (*Receipt, error) {
	s := newSealer(opts, seed)
	for _, seg := range segs {
		s.seal(seg)
	}
	return s.finish()
}

// settled waits briefly for the goroutines a proof started to exit and
// fails if more than base are left: a proof that returns leaves nothing
// running.
func settled(t *testing.T, base int) {
	t.Helper()
	for range 200 {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%d goroutines after the proof returned, %d before", runtime.NumGoroutine(), base)
}

// TestSealAtCutMatchesSealAfter: sealing each segment at its cut, while
// the machine runs on, gives the bytes of sealing every segment after
// the run, at GOMAXPROCS 1, 2, 4 and 7, for a run cut every 2^12 and
// every 2^17 rows and for the one-segment run.
func TestSealAtCutMatchesSealAfter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	prog := segTestProgram(t)
	for _, c := range []struct {
		input []uint32
		cut   int
		segs  int
	}{{[]uint32{3000, 5}, 0, 1}, {[]uint32{3000, 5}, 1 << 12, 9}, {[]uint32{22000, 5}, 1 << 17, 3}} {
		opts := ProveOptions{Checks: 6, SegmentCycles: c.cut}
		segs, err := executeSegmented(prog, c.input, ExecOptions{}, c.cut)
		if err != nil {
			t.Fatal(err)
		}
		after, err := sealSegments(segs, opts, segTestSeed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := after.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if after.NumSegments() != c.segs {
			t.Fatalf("cut %d: %d segments, want %d", c.cut, after.NumSegments(), c.segs)
		}
		for _, procs := range []int{1, 2, 4, 7} {
			runtime.GOMAXPROCS(procs)
			got, err := mustProve(t, prog, c.input, opts).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cut %d, GOMAXPROCS %d: sealed at the cuts, the receipt differs from the one sealed after the run", c.cut, procs)
			}
		}
	}
}

// TestSegmentedFailureWhileSealing: a run that traps on a bad pc, or
// runs out of steps, after several cuts — its earlier segments still
// sealing — returns that error and no receipt, and leaves no goroutine
// behind, at GOMAXPROCS 1 and 2 (make race runs it under the race
// detector: a seal reading a slab the failure returned to a pool would
// show there). TestSegmentedAbort covers the nonzero exit.
func TestSegmentedFailureWhileSealing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// 2000 turns of a store-load loop over 64 words, then a jump to pc
	// 1<<20.
	trap := asm(func(a *Assembler) {
		a.Li(R2, 0)
		a.Li(R3, 2000)
		a.Label("loop")
		a.Andi(R4, R2, 63)
		a.Sw(R2, R4, 0)
		a.Lw(R5, R4, 0)
		a.Addi(R2, R2, 1)
		a.Bltu(R2, R3, "loop")
		a.Li(R6, 1<<20)
		a.Jalr(R0, R6, 0)
	})
	opts := ProveOptions{Checks: 4, SegmentCycles: 1 << 12}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		base := runtime.NumGoroutine()
		r, err := ProveSeeded(trap, nil, opts, segTestSeed)
		var te *TrapError
		if !errors.As(err, &te) || r != nil || !strings.Contains(err.Error(), "outside program") {
			t.Fatalf("GOMAXPROCS %d: bad pc after two cuts gave %v and a receipt %v", procs, err, r != nil)
		}
		settled(t, base)

		// The step limit, 3.5 segments into segTestProgram's run.
		r, err = proveRun(segTestProgram(t), []uint32{3000, 5}, opts, segTestSeed, 7*opts.SegmentCycles/2)
		if !errors.Is(err, ErrStepLimit) || r != nil {
			t.Fatalf("GOMAXPROCS %d: a run past its step budget gave %v and a receipt %v", procs, err, r != nil)
		}
		settled(t, base)
	}
}

// TestSegmentedProveVerify proves a multi-segment run and checks the
// composite against the program, the monolithic journal, and a binary
// round-trip.
func TestSegmentedProveVerify(t *testing.T) {
	prog := segTestProgram(t)
	input := []uint32{3000, 5}
	c := mustProve(t, prog, input, ProveOptions{Checks: 8, SegmentCycles: 1 << 10})
	if c.NumSegments() < 4 {
		t.Fatalf("expected >= 4 segments, got %d", c.NumSegments())
	}
	if err := Verify(prog, c, VerifyOptions{}); err != nil {
		t.Fatalf("composite verify: %v", err)
	}
	ex, err := Execute(prog, input, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer releaseExecution(ex)
	if got, want := c.JournalWords(), ex.Journal; len(got) != len(want) {
		t.Fatalf("journal length %d, want %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("journal word %d: %d, want %d", i, got[i], want[i])
			}
		}
	}
	if code := c.Segments[len(c.Segments)-1].ExitCode; code != 0 {
		t.Fatalf("exit status %d", code)
	}
	if c.Image() != prog.ID() {
		t.Fatal("image mismatch")
	}

	bin, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := UnmarshalReceipt(bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(prog, c2, VerifyOptions{MinChecks: 8}); err != nil {
		t.Fatalf("round-tripped composite verify: %v", err)
	}
	bin2, err := c2.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin, bin2) {
		t.Fatal("re-marshal differs")
	}
	any, err := UnmarshalAnyReceipt(bin)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := any.(*Receipt); !ok {
		t.Fatalf("UnmarshalAnyReceipt returned %T", any)
	}
	if err := VerifyAny(prog, any, VerifyOptions{}); err != nil {
		t.Fatalf("VerifyAny: %v", err)
	}
}

// TestSegmentedSingleSegment: a SegmentCycles larger than the run
// yields a one-segment chain that must still verify (entry == genesis,
// final halt rules).
func TestSegmentedSingleSegment(t *testing.T) {
	prog := segTestProgram(t)
	c := mustProve(t, prog, []uint32{40, 5}, ProveOptions{Checks: 8, SegmentCycles: 1 << 20})
	if c.NumSegments() != 1 {
		t.Fatalf("expected 1 segment, got %d", c.NumSegments())
	}
	if err := Verify(prog, c, VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentedDeterminism is the tentpole guarantee: same input +
// same SegmentCycles => byte-identical receipt at any GOMAXPROCS (for a
// fixed salt seed), one segment or many.
func TestSegmentedDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	prog := segTestProgram(t)
	input := []uint32{3000, 5}
	for _, segCycles := range []int{0, 1 << 10, 1 << 14} {
		var want []byte
		var wantSegs int
		for _, par := range []int{1, 2, 3, 4, 7} {
			runtime.GOMAXPROCS(par)
			c := mustProve(t, prog, input, ProveOptions{Checks: 8, SegmentCycles: segCycles})
			got, err := c.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want, wantSegs = got, c.NumSegments()
			} else {
				if !bytes.Equal(want, got) {
					t.Fatalf("SegmentCycles=%d: composite differs at parallelism %d", segCycles, par)
				}
				if c.NumSegments() != wantSegs {
					t.Fatalf("SegmentCycles=%d: segment count differs", segCycles)
				}
			}
		}
	}
}

// TestCompositeAdversarial mutates a valid chain in every way the
// linkage rules must reject.
func TestCompositeAdversarial(t *testing.T) {
	prog := segTestProgram(t)
	input := []uint32{3000, 5}
	opts := ProveOptions{Checks: 8, SegmentCycles: 1 << 10}
	c := mustProve(t, prog, input, opts)
	if c.NumSegments() < 4 {
		t.Fatalf("need >= 4 segments, got %d", c.NumSegments())
	}
	// A second run over different input: same program, different
	// journal and states, for splicing attacks.
	other := mustProve(t, prog, []uint32{3100, 0xdead}, opts)
	if other.NumSegments() < 4 {
		t.Fatal("other run too short")
	}

	reload := func() *Receipt {
		bin, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		cc, err := UnmarshalReceipt(bin)
		if err != nil {
			t.Fatal(err)
		}
		return cc
	}
	expectFail := func(name string, mut func(cc *Receipt)) {
		t.Helper()
		cc := reload()
		mut(cc)
		if err := Verify(prog, cc, VerifyOptions{}); err == nil {
			t.Fatalf("%s: composite verified after tampering", name)
		} else if !errors.Is(err, ErrVerify) {
			t.Fatalf("%s: error not wrapped: %v", name, err)
		}
	}

	expectFail("reordered segments", func(cc *Receipt) {
		cc.Segments[1], cc.Segments[2] = cc.Segments[2], cc.Segments[1]
	})
	expectFail("reordered segments with re-indexing", func(cc *Receipt) {
		cc.Segments[1], cc.Segments[2] = cc.Segments[2], cc.Segments[1]
		cc.Segments[1].Index = 1
		cc.Segments[2].Index = 2
	})
	expectFail("dropped middle segment", func(cc *Receipt) {
		cc.Segments = append(cc.Segments[:1], cc.Segments[2:]...)
	})
	expectFail("dropped middle segment with re-indexing", func(cc *Receipt) {
		cc.Segments = append(cc.Segments[:1], cc.Segments[2:]...)
		for i, sr := range cc.Segments {
			sr.Index = uint32(i)
		}
	})
	expectFail("dropped final segment", func(cc *Receipt) {
		cc.Segments = cc.Segments[:len(cc.Segments)-1]
	})
	expectFail("forged entry linkage", func(cc *Receipt) {
		cc.Segments[2].Entry.Regs[7]++
	})
	expectFail("forged exit linkage", func(cc *Receipt) {
		cc.Segments[1].Exit.Regs[7]++
	})
	expectFail("forged linkage on both sides", func(cc *Receipt) {
		// Consistent relink: chain rules pass, the segment transcripts
		// must catch it.
		cc.Segments[1].Exit.Regs[7]++
		cc.Segments[2].Entry.Regs[7]++
	})
	expectFail("forged boundary image root", func(cc *Receipt) {
		cc.Segments[1].Exit.MemRoot[0] ^= 1
		cc.Segments[2].Entry.MemRoot[0] ^= 1
	})
	expectFail("genesis bypass", func(cc *Receipt) {
		cc.Segments[0].Entry.Regs[1] = 7
	})
	expectFail("journal spliced from another run", func(cc *Receipt) {
		// Find a non-final segment that actually journaled something and
		// substitute the same-index journal from the other run (same
		// length, different words: the guest mixes the input salt into
		// every checkpoint).
		for i, sr := range cc.Segments[:len(cc.Segments)-1] {
			if len(sr.Journal) > 0 && len(other.Segments[i].Journal) == len(sr.Journal) {
				sr.Journal = append([]uint32(nil), other.Segments[i].Journal...)
				return
			}
		}
		t.Fatal("no spliceable journal segment")
	})
	expectFail("journal word tampered", func(cc *Receipt) {
		for _, sr := range cc.Segments {
			if len(sr.Journal) > 0 {
				sr.Journal[0] ^= 1
				return
			}
		}
		t.Fatal("no journal words to tamper")
	})
	expectFail("segment spliced from another run", func(cc *Receipt) {
		cc.Segments[1] = other.Segments[1]
	})
	expectFail("exit code forged", func(cc *Receipt) {
		cc.Segments[len(cc.Segments)-1].ExitCode = 1
	})
	expectFail("final flag forged", func(cc *Receipt) {
		cc.Segments[len(cc.Segments)-1].Final = false
	})
	expectFail("truncated to prefix with forged final", func(cc *Receipt) {
		cc.Segments = cc.Segments[:2]
		cc.Segments[1].Final = true
	})

	// Unforged chain still verifies after all that (reload isolation).
	if err := Verify(prog, reload(), VerifyOptions{}); err != nil {
		t.Fatalf("control: %v", err)
	}
}

// TestSegmentedAbort: a guest that halts nonzero refuses to prove and
// carries the full concatenated journal in the abort; a composite
// sealed from the aborted run anyway does not verify.
func TestSegmentedAbort(t *testing.T) {
	a := NewAssembler()
	a.ReadInput(2)
	a.Li(3, 0)
	a.Label("loop")
	a.Beq(3, 2, "done")
	a.Sw(3, 3, 0)
	a.Addi(3, 3, 1)
	a.J("loop")
	a.Label("done")
	a.WriteJournal(2)
	a.HaltCode(9)
	prog, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	input := []uint32{400}
	opts := ProveOptions{Checks: 4, SegmentCycles: 128}
	_, err = ProveSeeded(prog, input, opts, segTestSeed)
	var abort *GuestAbortError
	if !errors.As(err, &abort) {
		t.Fatalf("expected GuestAbortError, got %v", err)
	}
	if abort.ExitCode != 9 || len(abort.Journal) != 1 || abort.Journal[0] != 400 {
		t.Fatalf("abort carries %+v", abort)
	}

	// Seal the run below the abort check.
	segs, err := executeSegmented(prog, input, ExecOptions{}, opts.SegmentCycles)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sealSegments(segs, opts, segTestSeed)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSegments() < 2 {
		t.Fatalf("want a multi-segment chain, got %d", c.NumSegments())
	}
	if err := Verify(prog, c, VerifyOptions{}); err == nil || !strings.Contains(err.Error(), "exit code 9") {
		t.Fatalf("nonzero exit: %v", err)
	}
}

// TestSegmentedStepLimit: the step budget bounds the total cycle count
// across segments.
func TestSegmentedStepLimit(t *testing.T) {
	prog := segTestProgram(t)
	_, err := executeSegmented(prog, []uint32{3000, 5}, ExecOptions{MaxSteps: 2000}, 1<<10)
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("expected ErrStepLimit, got %v", err)
	}
}

// retiredMagics are the first bytes of the "zkf" magics no decoder
// reads: "zkf1"–"zkf3" (format v1), "zkf4" (the folded receipt),
// "zkf5"–"zkf7" (format v2), "zkf8" (a run sealed whole under its own
// statement), "zkf9" (format v3, two-compression nodes), "zkfa" (the
// frames of the deleted prover farm's wire), "zkfb" (the standalone
// segment receipt), "zkfc" (format v4, a path in every opening), "zkfd"
// (format v5, the address-sorted memory log) and "zkfe" (format v6, a
// product element a record). They are retired, not free.
var retiredMagics = []byte{'1', '2', '3', '4', '5', '6', '7', '8', '9', 'a', 'b', 'c', 'd', 'e'}

// TestUnmarshalAnyReceiptGarbage rejects unknown magics and empty
// input without panicking. A retired magic written over the body of a
// valid receipt is refused as unknown, never decoded.
func TestUnmarshalAnyReceiptGarbage(t *testing.T) {
	r, err := Prove(sumProgram(), sumInput(8), ProveOptions{Checks: 4})
	if err != nil {
		t.Fatal(err)
	}
	body, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	type garbage struct {
		name    string
		data    []byte
		wantErr string
	}
	cases := []garbage{
		{"nil", nil, "truncated"},
		{"garbage", []byte{1, 2, 3, 4, 5}, "unknown receipt magic"},
	}
	for _, m := range retiredMagics {
		cases = append(cases, garbage{"retired zkf" + string(m), append([]byte{m, 'f', 'k', 'z'}, body[4:]...), "unknown receipt magic"})
	}
	for _, tc := range cases {
		if _, err := UnmarshalAnyReceipt(tc.data); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: got %v, want an error mentioning %q", tc.name, err, tc.wantErr)
		}
	}
}
