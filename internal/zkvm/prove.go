package zkvm

import (
	"crypto/rand"
	"fmt"
	"sync"

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
// opts.SegmentCycles steps each (one segment when it is zero). Each
// segment is handed to the run's sealer as soon as execution passes its
// cut, and seals while the machine runs on; the final segment seals
// after the halt. The receipt is byte-deterministic: the same program,
// input, options and seed produce the same receipt at any width, in any
// process and whatever the overlap. A run that traps, runs out of
// DefaultMaxSteps, or halts with a nonzero exit code returns an error
// and no receipt — once every segment in flight has sealed, so that no
// slab goes back to a pool while a seal reads it: tampered telemetry
// cannot be proven.
func ProveSeeded(prog *Program, input []uint32, opts ProveOptions, seed [32]byte) (*Receipt, error) {
	return proveRun(prog, input, opts, seed, 0)
}

// proveRun is ProveSeeded within maxSteps cycles (0 = DefaultMaxSteps).
func proveRun(prog *Program, input []uint32, opts ProveOptions, seed [32]byte, maxSteps int) (*Receipt, error) {
	s := newSealer(opts, seed)
	m := newMachine(prog, input, opts.SegmentCycles)
	m.closed = s.seal
	execDone := stageTimer(opts.Observer, StageExecute)
	err := m.run(maxSteps)
	execDone()
	if err == nil && m.seg.ex.ExitCode != 0 {
		err = &GuestAbortError{ExitCode: m.seg.ex.ExitCode, Journal: append(make([]uint32, 0, len(m.journal)), m.journal...)}
	}
	if err != nil {
		s.wait()
		releaseSegments(m.segs)
		return nil, err
	}
	s.seal(m.seg)
	return s.finish()
}

// sealer seals the segments of one run in the order the machine closes
// them, each on a goroutine of its own: segment k, if it is not final,
// first commits its exit image — boundary image k+1, the next segment's
// entry image — under that boundary's sub-seed and takes the tree's
// root as its exit state's MemRoot; then, once segment k-1 has
// committed image k, whose root becomes its entry state's MemRoot, it
// seals under its own sub-seed against the two shared boundary tables
// and returns its trace slabs to the pools. At most par.Workers() commit or
// seal at once, each on a crew par.Workers() wide, so the last segments
// to start still keep every core busy and the Go scheduler interleaves
// the crews — and the machine — while they overlap. A run of one
// segment seals once, after the halt, against no boundary.
type sealer struct {
	opts  ProveOptions
	seed  [32]byte
	jobs  []*sealJob
	slots chan struct{}
	wg    sync.WaitGroup
}

// sealJob is one segment on its way to a receipt: exit is its exit
// image's table, nil for the final segment, and ready is closed once
// exit is committed.
type sealJob struct {
	seg     *segmentExecution
	exit    *table
	ready   chan struct{}
	receipt *SegmentReceipt
	err     error
}

func newSealer(opts ProveOptions, seed [32]byte) *sealer {
	return &sealer{opts: opts, seed: seed, slots: make(chan struct{}, par.Workers())}
}

// slot runs fn holding one of the sealer's par.Workers() slots; nothing
// waits on another segment while it holds one.
func (s *sealer) slot(fn func()) {
	s.slots <- struct{}{}
	defer func() { <-s.slots }()
	fn()
}

// seal starts sealing seg, the run's next segment.
func (s *sealer) seal(seg *segmentExecution) {
	var prev *sealJob
	if n := len(s.jobs); n > 0 {
		prev = s.jobs[n-1]
	}
	job := &sealJob{seg: seg, ready: make(chan struct{})}
	s.jobs = append(s.jobs, job)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if !seg.final {
			s.slot(func() {
				defer stageTimer(s.opts.Observer, StageBoundaryCommit)()
				sub := deriveSubSeed(&s.seed, "bnd", seg.index+1)
				job.exit = imageTable(newSalter(&sub), seg.exitImg)
				commitTables(par.Workers(), nil, job.exit)
			})
			seg.exit.MemRoot = job.exit.tree.Root()
		}
		close(job.ready)
		var entry *table
		if prev != nil {
			<-prev.ready
			entry = prev.exit
			seg.entry.MemRoot = entry.tree.Root()
		}
		s.slot(func() {
			sub := deriveSubSeed(&s.seed, "seg", seg.index)
			job.receipt, job.err = proveSegmentSeeded(seg, s.opts, &sub, entry, job.exit)
		})
		releaseExecution(seg.ex)
	}()
}

// wait waits for every segment in flight and returns the boundary
// tables to the pools: no seal reads them any more.
func (s *sealer) wait() {
	s.wg.Wait()
	for _, job := range s.jobs {
		if job.exit != nil {
			job.exit.release()
		}
	}
}

// finish waits for every segment, returns the run's images to the pools
// and assembles the receipt: the segments in order, or the first
// segment's error.
func (s *sealer) finish() (*Receipt, error) {
	s.wait()
	r := &Receipt{Segments: make([]*SegmentReceipt, len(s.jobs))}
	segs := make([]*segmentExecution, len(s.jobs))
	var err error
	for i, job := range s.jobs {
		r.Segments[i], segs[i] = job.receipt, job.seg
		if err == nil {
			err = job.err
		}
	}
	releaseSegments(segs)
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

// checks resolves the sampled-check count per family.
func (o ProveOptions) checks() int {
	if o.Checks <= 0 {
		return DefaultChecks
	}
	return o.Checks
}
