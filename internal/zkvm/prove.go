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

// ProveOptions configures proof generation.
type ProveOptions struct {
	// Checks is the sampled-check count per family (default DefaultChecks).
	Checks int
	// Parallelism is the width of the prover's crew: the committed
	// tables (execution-trace rows, the two memory-log orderings —
	// which include the hash-precompile's memory rows — and the two
	// running-product columns) are cut into leaf blocks that the crew
	// salts, encodes, hashes and reduces, and segments of a segmented
	// run are sealed side by side. 0 means GOMAXPROCS; 1 is the fully
	// serial path. Every width produces byte-identical receipts
	// (asserted by TestParallelProveDeterminism).
	Parallelism int
	// SegmentCycles, when positive, enables continuation-style
	// segmented proving (ProveSegmented / ProveAny): the execution is
	// cut every SegmentCycles steps and each slice is sealed as an
	// independent segment receipt chained through committed boundary
	// states. Values below minSegmentCycles are floored. Zero keeps
	// the monolithic single-receipt path; Prove itself always ignores
	// this field.
	SegmentCycles int
	// AllowNonZeroExit proves runs that halted with a nonzero exit
	// code. By default such runs are treated as guest aborts and
	// refuse to prove — the paper's "failed proof generation" signal.
	AllowNonZeroExit bool
	// MaxSteps bounds the guest cycle budget (0 = default).
	MaxSteps int
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

// Prove is ProveWithSeed under a fresh random salt seed.
func Prove(prog *Program, input []uint32, opts ProveOptions) (*Receipt, error) {
	seed, err := newSeed()
	if err != nil {
		return nil, err
	}
	return ProveWithSeed(prog, input, opts, seed)
}

// newSeed draws a salt seed from the system's randomness.
func newSeed() (seed [32]byte, err error) {
	if _, err = rand.Read(seed[:]); err != nil {
		err = fmt.Errorf("zkvm: salt seed: %w", err)
	}
	return seed, err
}

// ProveExecution seals an already-traced execution.
func ProveExecution(ex *Execution, opts ProveOptions) (*Receipt, error) {
	seed, err := newSeed()
	if err != nil {
		return nil, err
	}
	return proveExecutionSeeded(ex, opts, &seed)
}

// checks resolves the sampled-check count per family.
func (o ProveOptions) checks() int {
	if o.Checks <= 0 {
		return DefaultChecks
	}
	return o.Checks
}

// proveExecutionSeeded is the deterministic core of ProveExecution:
// given the same execution, options, and salt seed it emits the same
// receipt byte-for-byte at any Parallelism — all concurrency below is
// index-partitioned over committed tables, never order-dependent. A
// whole run is the segment that enters at genesis and is final, so it
// has no boundary image to import or to leave; what a monolithic receipt
// keeps of its own is its statement binding and its encoding.
func proveExecutionSeeded(ex *Execution, opts ProveOptions, seed *[32]byte) (*Receipt, error) {
	seg := &segmentExecution{ex: ex, final: true, entry: GenesisState()}
	sr, err := proveSegmentSeeded(seg, opts, seed, nil, nil, par.Workers(opts.Parallelism), monoStatement)
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
