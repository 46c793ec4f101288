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
// opts.SegmentCycles steps each (one segment when it is zero). A crew
// claims the segments by index, at most par.Workers() sealing at once,
// and each is sealed under its own derived sub-seed on a crew of its
// own that is par.Workers() wide too: the last segments to start still
// keep every core busy, and the Go scheduler interleaves the crews
// while they overlap. The receipt is byte-deterministic: the same
// program, input, options and seed produce the same receipt at any
// width and in any process, which is what lets
// a prover farm split one run across workers. A run that traps, runs
// out of DefaultMaxSteps, or halts with a nonzero exit code returns an
// error and no receipt: tampered telemetry cannot be proven.
func ProveSeeded(prog *Program, input []uint32, opts ProveOptions, seed [32]byte) (*Receipt, error) {
	run, err := NewSegmentRun(prog, input, opts, seed)
	if err != nil {
		return nil, err
	}
	defer run.Release()
	n := run.Segments()
	receipts := make([]*SegmentReceipt, n)
	errs := make([]error, n)
	par.Each(par.Workers(), n, func(i int) {
		receipts[i], errs[i] = run.proveSegment(i)
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
