package zkvm

import (
	"errors"
	"testing"
)

// TestCountSegmentsMatchesTraced sweeps loop lengths that land before,
// exactly on, and after segment boundaries and checks the count-only
// planner agrees with the traced executor on segment count, exit code
// and journal for every one.
func TestCountSegmentsMatchesTraced(t *testing.T) {
	prog, _ := handoffProgram(t)
	for _, loops := range []uint32{1, 5, 11, 12, 13, 40, 60, 61, 100, 250} {
		input := []uint32{loops}
		segs, err := executeSegmented(prog, input, ExecOptions{}, minSegmentCycles)
		if err != nil {
			t.Fatalf("loops=%d: traced: %v", loops, err)
		}
		wantJournal := []uint32(nil)
		for _, s := range segs {
			wantJournal = append(wantJournal, s.ex.Journal...)
		}
		wantN, wantExit := len(segs), segs[len(segs)-1].ex.ExitCode
		releaseSegments(segs)

		m := newMachine(prog, input, minSegmentCycles, false)
		if err := m.run(0); err != nil {
			t.Fatalf("loops=%d: count: %v", loops, err)
		}
		n, exit, journal := m.nsegs, m.exitCode(), m.journal
		if n != wantN || exit != wantExit {
			t.Fatalf("loops=%d: count (%d segs, exit %d), traced (%d segs, exit %d)",
				loops, n, exit, wantN, wantExit)
		}
		if len(journal) != len(wantJournal) {
			t.Fatalf("loops=%d: journal %v, traced %v", loops, journal, wantJournal)
		}
		for i := range journal {
			if journal[i] != wantJournal[i] {
				t.Fatalf("loops=%d: journal %v, traced %v", loops, journal, wantJournal)
			}
		}
	}
}

// TestPlanSegmentsAbortParity checks a nonzero guest exit surfaces from
// PlanSegments exactly as NewSegmentRun reports it: same error type,
// exit code and concatenated journal.
func TestPlanSegmentsAbortParity(t *testing.T) {
	a := NewAssembler()
	a.ReadInput(2) // loop count, long enough to cross a boundary
	a.Li(3, 0)
	a.Label("loop")
	a.WriteJournal(3)
	a.Addi(3, 3, 1)
	a.Bltu(3, 2, "loop")
	a.HaltCode(7)
	prog := a.MustAssemble()
	input := []uint32{uint32(minSegmentCycles)}
	opts := ProveOptions{Checks: 4, SegmentCycles: minSegmentCycles}

	_, runErr := NewSegmentRun(prog, input, opts, [32]byte{1})
	var want *GuestAbortError
	if !errors.As(runErr, &want) {
		t.Fatalf("NewSegmentRun: want GuestAbortError, got %v", runErr)
	}
	_, planErr := PlanSegments(prog, input, opts)
	var got *GuestAbortError
	if !errors.As(planErr, &got) {
		t.Fatalf("PlanSegments: want GuestAbortError, got %v", planErr)
	}
	if got.ExitCode != want.ExitCode {
		t.Fatalf("exit code %d, prover reported %d", got.ExitCode, want.ExitCode)
	}
	if len(got.Journal) != len(want.Journal) {
		t.Fatalf("journal %d words, prover reported %d", len(got.Journal), len(want.Journal))
	}
	for i := range got.Journal {
		if got.Journal[i] != want.Journal[i] {
			t.Fatalf("journal[%d] = %d, prover reported %d", i, got.Journal[i], want.Journal[i])
		}
	}
}

// TestPlanSegmentsErrorParity checks traps and the cycle budget report
// identically from the count-only and traced paths.
func TestPlanSegmentsErrorParity(t *testing.T) {
	// A guest that reads input it was never given: traps.
	a := NewAssembler()
	a.ReadInput(2)
	a.HaltCode(0)
	starved := a.MustAssemble()
	opts := ProveOptions{Checks: 4, SegmentCycles: minSegmentCycles}

	_, tracedErr := executeSegmented(starved, nil, ExecOptions{}, minSegmentCycles)
	_, planErr := PlanSegments(starved, nil, opts)
	var tTrap, pTrap *TrapError
	if !errors.As(tracedErr, &tTrap) || !errors.As(planErr, &pTrap) {
		t.Fatalf("want TrapError from both, got traced=%v plan=%v", tracedErr, planErr)
	}
	if *tTrap != *pTrap {
		t.Fatalf("trap %+v, traced path trapped with %+v", pTrap, tTrap)
	}

	// An endless loop: hits the step limit.
	b := NewAssembler()
	b.Label("spin")
	b.Jal(0, "spin")
	spin := b.MustAssemble()
	_, tracedErr = executeSegmented(spin, nil, ExecOptions{MaxSteps: 1000}, minSegmentCycles)
	planErr = newMachine(spin, nil, minSegmentCycles, false).run(1000)
	if !errors.Is(tracedErr, ErrStepLimit) || !errors.Is(planErr, ErrStepLimit) {
		t.Fatalf("want ErrStepLimit from both, got traced=%v plan=%v", tracedErr, planErr)
	}
}

// TestPlanSegmentsMatchesProve: the planner counts the segments
// ProveSeeded seals under the same options — one when SegmentCycles is
// zero, as many as the cut makes otherwise.
func TestPlanSegmentsMatchesProve(t *testing.T) {
	prog, input := segTestProgram(t), []uint32{300, 5}
	for _, cut := range []int{0, 1 << 10} {
		opts := ProveOptions{Checks: 2, SegmentCycles: cut}
		n, err := PlanSegments(prog, input, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r := mustProve(t, prog, input, opts); n != r.NumSegments() {
			t.Fatalf("SegmentCycles=%d: planned %d segments, sealed %d", cut, n, r.NumSegments())
		}
	}
}
