package zkvm

import (
	"crypto/rand"
	"fmt"

	"zkflow/internal/par"
	"zkflow/internal/transcript"
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
	// SegmentCycles, when positive, enables continuation-style
	// segmented proving (ProveAny / ProveSeeded): the execution is cut
	// every SegmentCycles steps and each slice is sealed as an
	// independent segment receipt chained through committed boundary
	// states. Values below minSegmentCycles are floored. Zero keeps
	// the monolithic single-receipt path; Prove itself always ignores
	// this field.
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

// Prove executes the guest over the private input and seals the whole
// run as one receipt under a fresh random salt seed. A run that traps,
// runs out of DefaultMaxSteps, or halts with a nonzero exit code
// returns an error and no receipt: tampered telemetry cannot be proven.
func Prove(prog *Program, input []uint32, opts ProveOptions) (*Receipt, error) {
	seed, err := newSeed()
	if err != nil {
		return nil, err
	}
	return proveMonoSeeded(prog, input, opts, &seed)
}

// ProveAny is ProveSeeded under a fresh random salt seed.
func ProveAny(prog *Program, input []uint32, opts ProveOptions) (AnyReceipt, error) {
	seed, err := newSeed()
	if err != nil {
		return nil, err
	}
	return ProveSeeded(prog, input, opts, seed)
}

// ProveSeeded proves one guest run under a caller-supplied salt seed,
// dispatching on opts.SegmentCycles: zero seals the whole run as one
// *Receipt, a positive value seals a *CompositeReceipt of
// SegmentCycles-step slices. Byte-deterministic: the same program,
// input, options and seed produce the same receipt at any width and in
// any process, which is what lets a prover farm split one run across
// workers. Traps and guest aborts return an error and no receipt.
func ProveSeeded(prog *Program, input []uint32, opts ProveOptions, seed [32]byte) (AnyReceipt, error) {
	if opts.SegmentCycles > 0 {
		c, err := proveSegmentedSeeded(prog, input, opts, &seed)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	r, err := proveMonoSeeded(prog, input, opts, &seed)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// newSeed draws a salt seed from the system's randomness.
func newSeed() (seed [32]byte, err error) {
	if _, err = rand.Read(seed[:]); err != nil {
		err = fmt.Errorf("zkvm: salt seed: %w", err)
	}
	return seed, err
}

// proveMonoSeeded executes the guest and seals the whole run under
// seed, refusing a nonzero exit.
func proveMonoSeeded(prog *Program, input []uint32, opts ProveOptions, seed *[32]byte) (*Receipt, error) {
	execDone := stageTimer(opts.Observer, StageExecute)
	ex, err := execute(prog, input, ExecOptions{}, true)
	execDone()
	if err != nil {
		return nil, err
	}
	// The execution was created here and neither the receipt nor the
	// abort aliases its trace slabs, so they can go back to the pool.
	defer releaseExecution(ex)
	if ex.ExitCode != 0 {
		return nil, &GuestAbortError{ExitCode: ex.ExitCode, Journal: ex.Journal}
	}
	return proveExecutionSeeded(ex, opts, seed)
}

// checks resolves the sampled-check count per family.
func (o ProveOptions) checks() int {
	if o.Checks <= 0 {
		return DefaultChecks
	}
	return o.Checks
}

// proveExecutionSeeded seals an already-traced execution, whatever its
// exit code: given the same execution, options, and salt seed it emits
// the same receipt byte-for-byte at any width — all concurrency below is
// index-partitioned over committed tables, never order-dependent. A
// whole run is the segment that enters at genesis and is final, so it
// has no boundary image to import or to leave; what a monolithic receipt
// keeps of its own is its statement binding and its encoding.
func proveExecutionSeeded(ex *Execution, opts ProveOptions, seed *[32]byte) (*Receipt, error) {
	seg := &segmentExecution{ex: ex, final: true, entry: GenesisState()}
	sr, err := proveSegmentSeeded(seg, opts, seed, nil, nil, par.Workers(), monoStatement)
	if err != nil {
		return nil, err
	}
	return &Receipt{ImageID: sr.ImageID, ExitCode: sr.ExitCode, Journal: sr.Journal, Seal: sr.Seal}, nil
}

// statement opens the transcript of a seal over sr with its public
// statement absorbed. There are two: a monolithic receipt's and a
// segment's. They are separate domains — different labels re-derive
// every sampled index — so a seal made under one never verifies as the
// other.
type statement func(sr *SegmentReceipt) *transcript.Transcript

// monoStatement is the statement of a monolithic receipt, given as the
// final segment entered at genesis: image ID, exit code, journal, and
// table lengths.
func monoStatement(sr *SegmentReceipt) *transcript.Transcript {
	tr := transcript.New(sealLabel)
	tr.Append("image-id", sr.ImageID[:])
	tr.AppendUint64("exit-code", uint64(sr.ExitCode))
	tr.Append("journal", wordsToBytes(sr.Journal))
	tr.AppendUint64("num-rows", uint64(sr.Seal.NumRows))
	tr.AppendUint64("num-mem", uint64(sr.Seal.NumMem))
	return tr
}
