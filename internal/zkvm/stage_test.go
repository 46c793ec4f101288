package zkvm

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// stageLog is a test StageObserver that records every stage report.
type stageLog struct {
	mu    sync.Mutex
	seen  map[string]int
	total time.Duration
}

func (l *stageLog) ObserveStage(stage string, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == nil {
		l.seen = make(map[string]int)
	}
	l.seen[stage]++
	l.total += d
}

// TestProveReportsAllStages drives a proof with an observer attached
// and checks every stage in Stages is reported exactly once with a
// non-negative duration.
func TestProveReportsAllStages(t *testing.T) {
	var log stageLog
	prog := sumProgram()
	r, err := Prove(prog, sumInput(16), ProveOptions{Checks: 6, Observer: &log})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(prog, r, VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, stage := range Stages {
		want := 1
		if stage == StageBoundaryCommit {
			// Boundary-image commits only exist in segmented proofs.
			want = 0
		}
		if got := log.seen[stage]; got != want {
			t.Errorf("stage %q reported %d times, want %d", stage, got, want)
		}
	}
	if len(log.seen) != len(Stages)-1 {
		t.Errorf("observer saw %d stages, want %d: %v", len(log.seen), len(Stages)-1, log.seen)
	}
	if log.total < 0 {
		t.Errorf("negative total stage time %v", log.total)
	}
}

// TestSegmentedProveReportsStages drives a multi-segment proof and
// checks the per-segment stages are reported once per segment and the
// boundary commit once per composite.
func TestSegmentedProveReportsStages(t *testing.T) {
	var log stageLog
	prog := segTestProgram(t)
	c, err := ProveSeeded(prog, []uint32{3000, 5},
		ProveOptions{Checks: 6, SegmentCycles: 1 << 10, Observer: &log}, segTestSeed)
	if err != nil {
		t.Fatal(err)
	}
	n := c.NumSegments()
	if n < 2 {
		t.Fatalf("expected multiple segments, got %d", n)
	}
	if got := log.seen[StageExecute]; got != 1 {
		t.Errorf("execute reported %d times, want 1", got)
	}
	if got := log.seen[StageBoundaryCommit]; got != 1 {
		t.Errorf("boundary_commit reported %d times, want 1", got)
	}
	for _, stage := range []string{StageMerkleCommit, StageGrandProduct, StageSeal} {
		if got := log.seen[stage]; got != n {
			t.Errorf("stage %q reported %d times, want %d", stage, got, n)
		}
	}
	if got := log.seen[StageMemSort]; got != 0 {
		t.Errorf("mem_sort, which format v6 does not have, reported %d times", got)
	}
}

// TestObserverDoesNotChangeReceipt pins that instrumentation is
// byte-invisible: the same execution sealed with and without an
// observer (same salt seed) yields identical receipts.
func TestObserverDoesNotChangeReceipt(t *testing.T) {
	prog := sumProgram()
	ex, err := Execute(prog, sumInput(8), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seed := &[32]byte{1, 2, 3}
	plain, err := proveExecutionSeeded(ex, ProveOptions{Checks: 6}, seed)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := proveExecutionSeeded(ex, ProveOptions{Checks: 6, Observer: &stageLog{}}, seed)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := plain.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ob, err := observed.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, ob) {
		t.Fatal("observer changed the receipt bytes")
	}
}
