package zkvm

import (
	"crypto/rand"
	"fmt"

	"zkflow/internal/par"
)

// DefaultChecks is the default number of sampled checks per family.
// Verification cost and seal size grow linearly in it; soundness
// against a prover cheating on a fraction f of rows is 1-(1-f)^k.
const DefaultChecks = 48

// ProveOptions configures proof generation. Prover width is not an
// option: every crew is par.Workers() wide, and receipts are
// byte-identical at any width (asserted by the determinism tests).
type ProveOptions struct {
	// Checks is the sampled-check count per family (default DefaultChecks).
	Checks int
	// SegmentCycles, when positive, cuts the execution every
	// SegmentCycles steps (floored to minSegmentCycles), continuation
	// style: each slice is sealed as a segment chained to the next
	// through a committed boundary state. Zero never cuts: the whole run
	// is one segment.
	SegmentCycles int
	// Observer, when non-nil, receives per-stage timings (see Stages).
	// It never affects the receipt bytes; a nil observer costs one
	// branch per stage.
	Observer StageObserver
}

// GuestAbortError reports a guest that halted with a nonzero exit
// code, e.g. because a telemetry integrity check failed.
type GuestAbortError struct {
	ExitCode uint32
	Journal  []uint32
}

// Error implements the error interface.
func (e *GuestAbortError) Error() string {
	return fmt.Sprintf("zkvm: guest aborted with exit code %d", e.ExitCode)
}

// Prove is ProveSeeded under a fresh random salt seed.
func Prove(prog *Program, input []uint32, opts ProveOptions) (*Receipt, error) {
	seed, err := newSeed()
	if err != nil {
		return nil, err
	}
	return ProveSeeded(prog, input, opts, seed)
}

// ProveAny is Prove behind the AnyReceipt interface.
func ProveAny(prog *Program, input []uint32, opts ProveOptions) (AnyReceipt, error) {
	r, err := Prove(prog, input, opts)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// ProveSeeded executes the guest and proves the run, under a
// caller-supplied salt seed, as a chain of segments of
// opts.SegmentCycles steps each (one segment when it is zero). The
// receipt is byte-deterministic: the same program, input, options and
// seed produce the same receipt at any width and in any process. A run
// that traps, runs out of DefaultMaxSteps, or halts with a nonzero exit
// code returns an error and no receipt: tampered telemetry cannot be
// proven.
func ProveSeeded(prog *Program, input []uint32, opts ProveOptions, seed [32]byte) (*Receipt, error) {
	execDone := stageTimer(opts.Observer, StageExecute)
	segs, err := executeSegmented(prog, input, ExecOptions{}, opts.SegmentCycles)
	execDone()
	if err != nil {
		return nil, err
	}
	if last := segs[len(segs)-1]; last.ex.ExitCode != 0 {
		journal := make([]uint32, 0)
		for _, s := range segs {
			journal = append(journal, s.ex.Journal...)
		}
		releaseSegments(segs)
		return nil, &GuestAbortError{ExitCode: last.ex.ExitCode, Journal: journal}
	}
	return sealSegments(segs, opts, seed)
}

// sealSegments proves a traced run whatever its exit code, then returns
// its slabs to the pools. It first commits each boundary image k —
// segs[k]'s entry image, which is segs[k-1]'s exit image — under its
// own sub-seed, so both adjacent segment proofs open leaves of the same
// tree and the boundary MemRoots are fixed before any segment seals.
// Then a crew claims the segments by index, at most par.Workers()
// sealing at once, and seals each under its own sub-seed on a crew of
// its own that is par.Workers() wide too: the last segments to start
// still keep every core busy, and the Go scheduler interleaves the
// crews while they overlap.
func sealSegments(segs []*segmentExecution, opts ProveOptions, seed [32]byte) (*Receipt, error) {
	n := len(segs)
	// The run's two ends have no image: bnd[0] and bnd[n] stay nil.
	bnd := make([]*table, n+1)
	defer func() {
		for _, b := range bnd[1:n] {
			b.release()
		}
		releaseSegments(segs)
	}()
	if n > 1 {
		bndDone := stageTimer(opts.Observer, StageBoundaryCommit)
		for k := 1; k < n; k++ {
			sub := deriveSubSeed(&seed, "bnd", k)
			bnd[k] = imageTable(newSalter(&sub), segs[k].entryImg)
		}
		commitTables(par.Workers(), nil, bnd[1:n]...)
		for k := 1; k < n; k++ {
			root := bnd[k].tree.Root()
			segs[k].entry.MemRoot = root
			segs[k-1].exit.MemRoot = root
		}
		bndDone()
	}
	receipts := make([]*SegmentReceipt, n)
	errs := make([]error, n)
	par.Each(par.Workers(), n, func(i int) {
		sub := deriveSubSeed(&seed, "seg", i)
		receipts[i], errs[i] = proveSegmentSeeded(segs[i], opts, &sub, bnd[i], bnd[i+1])
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return &Receipt{Segments: receipts}, nil
}

// newSeed draws a salt seed from the system's randomness.
func newSeed() (seed [32]byte, err error) {
	if _, err = rand.Read(seed[:]); err != nil {
		err = fmt.Errorf("zkvm: salt seed: %w", err)
	}
	return seed, err
}

// checks resolves the sampled-check count per family.
func (o ProveOptions) checks() int {
	if o.Checks <= 0 {
		return DefaultChecks
	}
	return o.Checks
}
