package zkvm

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
)

// sameFailure reports whether the machine and the reference failed the
// same way: both fine, both out of budget, or the same trap.
func sameFailure(got, want error) error {
	var gt, wt *TrapError
	switch {
	case got == nil && want == nil:
		return nil
	case errors.Is(got, ErrStepLimit) && errors.Is(want, ErrStepLimit):
		return nil
	case errors.As(got, &gt) && errors.As(want, &wt) && *gt == *wt:
		return nil
	}
	return fmt.Errorf("error %v, reference %v", got, want)
}

func sameExecution(got, want *Execution) error {
	switch {
	case !slices.Equal(got.Rows, want.Rows):
		return fmt.Errorf("%d rows, reference %d, or contents differ", len(got.Rows), len(want.Rows))
	case !slices.Equal(got.MemLog, want.MemLog):
		return fmt.Errorf("%d log entries, reference %d, or contents differ", len(got.MemLog), len(want.MemLog))
	case !slices.Equal(got.Journal, want.Journal):
		return fmt.Errorf("journal %v, reference %v", got.Journal, want.Journal)
	case got.ExitCode != want.ExitCode:
		return fmt.Errorf("exit code %d, reference %d", got.ExitCode, want.ExitCode)
	}
	return nil
}

// checkAgainstReference runs prog over input through both uses of the
// machine — monolithic, and cut at each of cuts — and returns the first
// difference from the map-backed loops of reference_test.go: rows,
// memory log, journal, exit code, segment cuts, boundary states and
// images, segment count, and the exact trap or step-limit error.
func checkAgainstReference(prog *Program, input []uint32, opts ExecOptions, cuts []int) error {
	want, wantErr := refExecute(prog, input, opts)
	got, err := Execute(prog, input, opts)
	if e := sameFailure(err, wantErr); e != nil {
		return fmt.Errorf("mono: %w", e)
	}
	if err == nil {
		e := sameExecution(got, want)
		releaseExecution(got)
		if e != nil {
			return fmt.Errorf("mono: %w", e)
		}
	}
	for _, cut := range cuts {
		wantSegs, wantErr := refExecuteSegmented(prog, input, opts, cut)
		segs, err := executeSegmented(prog, input, opts, cut)
		if e := sameFailure(err, wantErr); e != nil {
			return fmt.Errorf("cut %d: %w", cut, e)
		}
		if err != nil {
			continue
		}
		e := sameSegments(segs, wantSegs)
		releaseSegments(segs)
		if e != nil {
			return fmt.Errorf("cut %d: %w", cut, e)
		}
	}
	return nil
}

func sameSegments(got, want []*segmentExecution) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d segments, reference %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if err := sameExecution(g.ex, w.ex); err != nil {
			return fmt.Errorf("segment %d: %w", i, err)
		}
		switch {
		case g.index != w.index || g.final != w.final:
			return fmt.Errorf("segment %d: index %d final %v, reference %d %v", i, g.index, g.final, w.index, w.final)
		case g.entry != w.entry:
			return fmt.Errorf("segment %d: entry state %+v, reference %+v", i, g.entry, w.entry)
		case g.exit != w.exit:
			return fmt.Errorf("segment %d: exit state %+v, reference %+v", i, g.exit, w.exit)
		case !slices.Equal(g.entryImg, w.entryImg):
			return fmt.Errorf("segment %d: entry image differs from reference", i)
		case !slices.Equal(g.exitImg, w.exitImg):
			return fmt.Errorf("segment %d: exit image differs from reference", i)
		}
	}
	return nil
}

// referenceCuts are the segment lengths the differential tests sweep:
// the floor, one that lands mid-loop, and one longer than most runs.
var referenceCuts = []int{minSegmentCycles, 1000, 1 << 17}

// asm assembles the program fn builds.
func asm(fn func(a *Assembler)) *Program {
	a := NewAssembler()
	fn(a)
	return a.MustAssemble()
}

// TestMachineEdgeCases pins the corners paged memory and in-place
// stepping could get wrong, each both against the reference loops and
// against the value the ISA says the guest must see.
func TestMachineEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		prog    *Program
		input   []uint32
		journal []uint32
		logged  int // memory-log entries of the monolithic run
	}{
		{
			// Never-written words on never-touched pages, far apart:
			// every load reads 0, allocates nothing, and is logged.
			name: "fresh-loads",
			prog: asm(func(a *Assembler) {
				a.Li(R5, 0x12345678)
				a.Lw(R2, R5, 0)
				a.Lw(R3, R0, 0xdead0000)
				a.Or(R1, R2, R3)
				a.WriteJournal(R1)
				a.HaltCode(0)
			}),
			journal: []uint32{0}, logged: 2,
		},
		{
			// The two ends of the address space share no page.
			name: "address-extremes",
			prog: asm(func(a *Assembler) {
				a.Li(R2, 11)
				a.Li(R3, 22)
				a.Li(R5, 0xffffffff)
				a.Sw(R2, R0, 0)
				a.Sw(R3, R5, 0)
				a.Lw(R6, R0, 0)
				a.Lw(R7, R5, 0)
				a.Lw(R8, R5, 1) // 0xffffffff+1 wraps to address 0
				a.WriteJournal(R6)
				a.WriteJournal(R7)
				a.WriteJournal(R8)
				a.HaltCode(0)
			}),
			journal: []uint32{11, 22, 11}, logged: 5,
		},
		{
			// A SysHash whose source and destination both run off the top
			// of the address space: addr+i and dst+j wrap to 0, 1, ...
			name: "hash-wraps",
			prog: asm(func(a *Assembler) {
				a.Li(R5, 0xfffffffe)
				a.Li(R6, 7)
				a.Sw(R6, R5, 0) // mem[0xfffffffe] = 7
				a.Sw(R6, R0, 1) // mem[1] = 7
				a.Li(R1, 0xfffffffe)
				a.Li(R2, 4)
				a.Li(R3, 0xfffffffa)
				a.Ecall(SysHash)
				a.Lw(R1, R0, 1) // digest word 7 landed on address 1
				a.WriteJournal(R1)
				a.HaltCode(0)
			}),
			journal: []uint32{hashWord(7, 7, 0, 0, 7)}, logged: 2 + 4 + 8 + 1,
		},
		{
			// Every way of naming r0 as a destination leaves it zero.
			name: "r0-writes",
			prog: asm(func(a *Assembler) {
				a.Li(R2, 9)
				a.Sw(R2, R0, 40)
				a.Addi(R0, R2, 5)
				a.Lw(R0, R0, 40)
				a.Li(R0, 77)
				a.Jal(R0, "next")
				a.Label("next")
				a.Add(R1, R0, R0)
				a.WriteJournal(R1)
				a.HaltCode(0)
			}),
			journal: []uint32{0}, logged: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := checkAgainstReference(tc.prog, tc.input, ExecOptions{}, referenceCuts); err != nil {
				t.Fatal(err)
			}
			ex, err := Execute(tc.prog, tc.input, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ex.Journal, tc.journal) || len(ex.MemLog) != tc.logged {
				t.Fatalf("journal %v with %d log entries, want %v with %d", ex.Journal, len(ex.MemLog), tc.journal, tc.logged)
			}
		})
	}
}

// hashWord is digest word idx of SHA-256 over the little-endian
// packing of words, as SysHash computes it.
func hashWord(idx int, words ...uint32) uint32 {
	buf := make([]byte, 0, 4*len(words))
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint32(buf, w)
	}
	d := sha256.Sum256(buf)
	return binary.LittleEndian.Uint32(d[4*idx:])
}

// TestOversizedHashTrapsBeforeAllocating: a SysHash one word over the
// limit is a trap, in every mode, and the machine never sizes its
// scratch (64 MB at the limit) for it.
func TestOversizedHashTrapsBeforeAllocating(t *testing.T) {
	prog := asm(func(a *Assembler) {
		a.Li(R1, 0)
		a.Li(R2, maxHashWords+1)
		a.Li(R3, 0)
		a.Ecall(SysHash)
		a.HaltCode(0)
	})
	if err := checkAgainstReference(prog, nil, ExecOptions{}, referenceCuts); err != nil {
		t.Fatal(err)
	}
	m := newMachine(prog, nil, neverCut)
	var trap *TrapError
	if err := m.run(0); !errors.As(err, &trap) || trap.PC != 3 || trap.Step != 3 {
		t.Fatalf("want a trap at pc 3, got %v", err)
	}
	if m.scratch != nil || len(m.log) != 0 {
		t.Fatalf("trap came after %d scratch bytes and %d loads", cap(m.scratch), len(m.log))
	}
}

// TestHostileMemoryCeiling: a guest that strides stores across the
// whole address space, one word on each of 2^16 distinct pages,
// executes, reads every word back, and costs the emulator no more than
// pageCostBytes of allocation per page touched. The run measured is the
// second: its trace, access times and final table come back from the
// pools the first one returned them to, so what it allocates is the
// pages and their table.
func TestHostileMemoryCeiling(t *testing.T) {
	const pages, stride = 1 << 16, 0xffff // pages*stride < 2^32, stride > pageWords
	prog := asm(func(a *Assembler) {
		a.Li(R3, pages)
		a.Li(R5, stride)
		a.Li(R2, 0)
		a.Label("scatter")
		a.Mul(R4, R2, R5)
		a.Addi(R2, R2, 1)
		a.Sw(R2, R4, 0) // mem[i*stride] = i+1
		a.Bltu(R2, R3, "scatter")
		a.Li(R2, 0)
		a.Li(R6, 0)
		a.Label("gather")
		a.Mul(R4, R2, R5)
		a.Lw(R7, R4, 0)
		a.Add(R6, R6, R7)
		a.Addi(R2, R2, 1)
		a.Bltu(R2, R3, "gather")
		a.WriteJournal(R6)
		a.HaltCode(0)
	})
	if err := checkAgainstReference(prog, nil, ExecOptions{}, []int{1 << 17}); err != nil {
		t.Fatal(err)
	}
	warm := newMachine(prog, nil, neverCut)
	if err := warm.run(0); err != nil {
		t.Fatal(err)
	}
	releaseSegments(warm.segs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := newMachine(prog, nil, neverCut)
	err := m.run(0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer releaseSegments(m.segs)
	if want := uint32(pages * (pages + 1) / 2); len(m.journal) != 1 || m.journal[0] != want {
		t.Fatalf("read back %v, want [%d]", m.journal, want)
	}
	if len(m.mem.pages) != pages {
		t.Fatalf("%d pages allocated, want %d", len(m.mem.pages), pages)
	}
	// Under the race detector sync.Pool drops slabs on purpose, so the
	// second run may allocate a trace of its own.
	if perPage := (after.TotalAlloc - before.TotalAlloc) / pages; perPage > pageCostBytes && !raceEnabled {
		t.Fatalf("%d bytes allocated per touched page, ceiling is %d", perPage, pageCostBytes)
	}
}

// TestHostileSegmentCycles: SegmentCycles reaches the machine unchecked,
// from zkflowd's -segment-cycles or a caller's ProveOptions, so a cut may
// be far longer than any run. The trace slabs are sized
// by what the program is known to produce, never by the cut alone: the
// largest possible cut over a two-row guest costs kilobytes, under a
// small step budget and under the default one, and a guest that does
// run long grows into it by doubling, on the reference's trace.
func TestHostileSegmentCycles(t *testing.T) {
	for _, maxSteps := range []int{10, 0} {
		prog := asm(func(a *Assembler) { a.HaltCode(0) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		segs, err := executeSegmented(prog, nil, ExecOptions{MaxSteps: maxSteps}, math.MaxUint32)
		runtime.ReadMemStats(&after)
		if err != nil || len(segs) != 1 || len(segs[0].ex.Rows) != 2 {
			t.Fatalf("MaxSteps %d: %d segments, err %v", maxSteps, len(segs), err)
		}
		releaseSegments(segs)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
			t.Fatalf("MaxSteps %d: a two-row run allocated %d bytes", maxSteps, grown)
		}
	}
	loop := asm(func(a *Assembler) {
		a.Li(R3, 3000)
		a.Label("loop")
		a.Sw(R2, R2, 0)
		a.Addi(R2, R2, 1)
		a.Bltu(R2, R3, "loop")
		a.HaltCode(0)
	})
	if err := checkAgainstReference(loop, nil, ExecOptions{}, []int{2500, math.MaxUint32}); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteConstantAllocs is the allocation gate of a pooled Prove's
// execute phase, the machine driven as proveRun drives it: in the
// steady state (slabs coming back from the pools) a run costs the
// machine, its page table and its one segment — a constant that does
// not grow with the rows traced.
func TestExecuteConstantAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("slab pool misses are random under the race detector")
	}
	prog := loopProgram()
	run := func(loops uint32) []*segmentExecution {
		segs, err := executeSegmented(prog, []uint32{loops}, ExecOptions{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return segs
	}
	allocs := func(loops uint32) float64 {
		return testing.AllocsPerRun(5, func() { releaseSegments(run(loops)) })
	}
	large := allocs(40_000) // first, so the pooled slabs fit both sizes
	// Sized by the program's trace hint, a rerun fits the pooled slabs —
	// successor slot of the halt row included — and allocates neither.
	var segs []*segmentExecution
	grown := allocatedBytes(1, func() { segs = run(40_000) })
	if grown > 64<<10 {
		t.Fatalf("a hinted, pooled %d-row run allocated %d bytes", len(segs[0].ex.Rows), grown)
	}
	releaseSegments(segs)
	small := allocs(5_000)
	if small > 16 || large > small+1 {
		t.Fatalf("execute allocates %v per run at 25k rows and %v at 200k, want <= 16 and no growth", small, large)
	}
}

// liveOps are the opcodes opNames names, OpInvalid aside: the ones
// DecodeInstr accepts.
var liveOps = func() (ops []Op) {
	for op := OpInvalid + 1; op < opMax; op++ {
		if opNames[op] != "" {
			ops = append(ops, op)
		}
	}
	return ops
}()

// fuzzProgram decodes arbitrary bytes into a program that is always
// well-formed (valid opcode, registers in range) and usually runs for a
// while: the first byte folds onto the live opcodes, control-flow
// targets into the program (or one past it, the pc trap) and ecall
// codes onto 0-5, the three services and the unknown codes 0, 4 and 5.
func fuzzProgram(data []byte) *Program {
	n := len(data) / instrSize
	p := &Program{Instrs: make([]Instr, n)}
	for i := range p.Instrs {
		b := data[i*instrSize:]
		in := Instr{Op: liveOps[int(b[0])%len(liveOps)], Rd: b[1] % NumRegs, Rs1: b[2] % NumRegs, Rs2: b[3] % NumRegs, Imm: binary.LittleEndian.Uint32(b[4:])}
		switch in.Op {
		case OpBeq, OpBne, OpBltu, OpBgeu, OpJal:
			in.Imm %= uint32(n + 1)
		case OpEcall:
			in.Imm %= 6
		}
		p.Instrs[i] = in
	}
	return p
}

// FuzzExecuteMatchesReference: whatever the program and input, the
// machine and the reference loops agree, monolithic and cut — on the trace
// when the guest halts, on the exact TrapError{PC, Step, Reason} or
// ErrStepLimit when it does not.
func FuzzExecuteMatchesReference(f *testing.F) {
	seed := func(fn func(a *Assembler)) []byte { return asm(fn).Encode() }
	f.Add(seed(func(a *Assembler) { // store/load loop across a segment cut
		a.Li(R3, 40)
		a.Label("loop")
		a.Sw(R2, R2, 1000)
		a.Lw(R4, R2, 999)
		a.Addi(R2, R2, 1)
		a.Bltu(R2, R3, "loop")
		a.HaltCode(0)
	}), []byte{})
	f.Add(seed(func(a *Assembler) { // input, hash, journal
		a.ReadInput(R4)
		a.Sw(R4, R0, 0xfffffff0)
		a.Li(R1, 0xffffffee)
		a.Li(R2, 5)
		a.Li(R3, 0xfffffffd)
		a.Ecall(SysHash)
		a.Lw(R1, R0, 2)
		a.WriteJournal(R1)
		a.HaltCode(3)
	}), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(seed(func(a *Assembler) { // endless loop: step limit
		a.Label("spin")
		a.Sw(R2, R2, 0)
		a.Addi(R2, R2, 0x10000)
		a.J("spin")
	}), []byte{})
	f.Add(seed(func(a *Assembler) { a.ReadInput(R2) }), []byte{}) // starved, then runs off the end
	f.Fuzz(func(t *testing.T, code, tape []byte) {
		if len(code) > 64*instrSize {
			return
		}
		input := make([]uint32, len(tape)/4)
		for i := range input {
			input[i] = binary.LittleEndian.Uint32(tape[4*i:])
		}
		// SysHash lengths come from registers, up to 2^24 words a call. A
		// pass of the reference step that records nothing (refCountEnv)
		// sums the accesses and skips the runs whose memory log the
		// reference would need gigabytes to hold. A SysHash of more than
		// maxLogged words (and at most maxHashWords, past which it traps)
		// loads every word, so it passes the bound alone: it skips
		// before refStep reads them.
		const maxLogged = 1 << 16
		prog, opts := fuzzProgram(code), ExecOptions{MaxSteps: 200}
		env, row, logged := &refCountEnv{mem: make(map[uint32]uint32), input: input}, Row{}, uint32(0)
		for range opts.MaxSteps {
			if row.PC < uint32(len(prog.Instrs)) {
				in, n := prog.Instrs[row.PC], row.Regs[R2]
				if in.Op == OpEcall && in.Imm == SysHash && n > maxLogged && n <= maxHashWords {
					t.Skip("memory log too long for the reference")
				}
			}
			pc, regs, counts, halted, err := refStep(prog, &row, env)
			if logged += counts.mem; logged > maxLogged {
				t.Skip("memory log too long for the reference")
			}
			if halted || err != nil {
				break // a failure is compared below
			}
			row = Row{PC: pc, Regs: regs}
		}
		if err := checkAgainstReference(prog, input, opts, []int{minSegmentCycles, 100}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMachineMatchesReferenceOnHandoffLoops sweeps loop lengths that
// land before, exactly on, and after segment boundaries.
func TestMachineMatchesReferenceOnHandoffLoops(t *testing.T) {
	prog, _ := cutLoopProgram(t)
	for _, loops := range []uint32{1, 5, 11, 12, 13, 40, 60, 61, 100, 250} {
		if err := checkAgainstReference(prog, []uint32{loops}, ExecOptions{}, referenceCuts); err != nil {
			t.Fatalf("loops=%d: %v", loops, err)
		}
	}
}

// cutLoopProgram is a loop long enough to split into several segments
// at the minimum segment size, touching memory so boundary images are
// nonempty.
func cutLoopProgram(t *testing.T) (*Program, []uint32) {
	t.Helper()
	a := NewAssembler()
	a.ReadInput(2) // r2 = loop count
	a.Li(3, 0)     // r3 = i
	a.Li(4, 0)     // r4 = acc
	a.Label("loop")
	a.Add(4, 4, 3)
	a.Sw(4, 3, 0) // mem[i] = acc
	a.Addi(3, 3, 1)
	a.Bltu(3, 2, "loop")
	a.WriteJournal(4)
	a.HaltCode(0)
	return a.MustAssemble(), []uint32{60}
}

func cutLoopOpts() ProveOptions {
	return ProveOptions{Checks: 4, SegmentCycles: minSegmentCycles}
}
