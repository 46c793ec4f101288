package zkvm

import (
	"fmt"
	"sync"

	"zkflow/internal/par"
)

// This file is the distributed-proving surface of the zkVM: everything
// a prover farm needs to split one guest run across workers and
// reassemble a receipt that is byte-identical to what a single prover
// would have produced.
//
// The contract rests on determinism: ProveSeeded derives every
// per-segment and per-boundary salt seed from one master seed by index,
// so any worker that (a) re-executes the guest — a cheap emulator pass,
// orders of magnitude under sealing cost — and (b) proves segment i
// under the same master seed emits the exact bytes the single prover
// would. The coordinator hands out (program, input, seed, index) tuples
// and puts the returned segment receipts in index order; Verify decides
// whether they form a chain.

// PlanSegments executes the guest (emulation only, no tracing, no
// sealing) and returns the number of segments ProveSeeded with
// these options produce. A farm coordinator calls this once per
// dispatched epoch just to learn how many segment indices to hand out;
// paying the full traced execution for that — materialising tens of
// millions of Rows and MemEntries plus a boundary image per cut, all
// immediately discarded — made planning cost a large serial fraction
// of a farmed prove (E18). So the machine runs its one loop on the
// exact cut schedule of a traced run but records nothing: no trace
// rows, no memory log, no boundary images. Only guest memory, the
// input cursor and the journal (needed for guest-abort parity) are
// kept, so planning runs at raw emulation speed and allocates almost
// nothing. Guest aborts, traps and step-limit errors surface exactly
// as they would from ProveSeeded.
func PlanSegments(prog *Program, input []uint32, opts ProveOptions) (int, error) {
	m := newMachine(prog, input, opts.SegmentCycles, false)
	if err := m.run(0); err != nil {
		return 0, err
	}
	if code := m.exitCode(); code != 0 {
		return 0, &GuestAbortError{ExitCode: code, Journal: append([]uint32{}, m.journal...)}
	}
	return m.nsegs, nil
}

// SegmentRun is a traced, boundary-committed guest run from which
// individual segment receipts can be proved on demand — the worker-side
// half of distributed proving. Construction pays the emulation and
// boundary-commit cost once; each ProveSegment call then seals one
// slice. ProveSegment is safe for concurrent use. Call Release when
// done to return the trace slabs to their pools.
type SegmentRun struct {
	opts ProveOptions
	seed [32]byte

	segs []*segmentExecution
	// bnd[k] commits boundary image k — segs[k]'s entry image, which is
	// segs[k-1]'s exit image — under its own sub-seed; both adjacent
	// segment proofs open leaves of the same tree. The run's two ends
	// have no image: bnd[0] and bnd[len(segs)] stay nil.
	bnd []*table

	releaseOnce sync.Once
}

// NewSegmentRun executes the guest, builds the boundary-image trees
// under the master seed, and returns a run ready to prove any segment.
// A guest that halts nonzero returns *GuestAbortError and no run.
func NewSegmentRun(prog *Program, input []uint32, opts ProveOptions, seed [32]byte) (*SegmentRun, error) {
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
	return commitBoundaries(segs, opts, seed), nil
}

// commitBoundaries builds the run's boundary-image trees under seed,
// whatever the run's exit code. The boundary MemRoots are fixed here,
// so concurrent ProveSegment calls only read shared state.
func commitBoundaries(segs []*segmentExecution, opts ProveOptions, seed [32]byte) *SegmentRun {
	r := &SegmentRun{opts: opts, seed: seed, segs: segs}
	r.bnd = make([]*table, len(segs)+1)
	if len(segs) == 1 {
		return r // no boundary to commit
	}
	bndDone := stageTimer(opts.Observer, StageBoundaryCommit)
	for k := 1; k < len(segs); k++ {
		sub := deriveSubSeed(&seed, "bnd", k)
		r.bnd[k] = imageTable(newSalter(&sub), segs[k].entryImg)
	}
	commitTables(par.Workers(), nil, r.bnd[1:len(segs)]...)
	for k := 1; k < len(segs); k++ {
		root := r.bnd[k].tree.Root()
		segs[k].entry.MemRoot = root
		segs[k-1].exit.MemRoot = root
	}
	bndDone()
	return r
}

// Segments returns the segment count of the run.
func (r *SegmentRun) Segments() int { return len(r.segs) }

// ProveSegment seals segment index under the run's master seed. The
// returned receipt is byte-identical to Segments[index] of the
// receipt ProveSeeded(prog, input, opts, seed) returns. Safe to call
// concurrently for different (or equal) indices.
func (r *SegmentRun) ProveSegment(index int) (*SegmentReceipt, error) {
	if index < 0 || index >= len(r.segs) {
		return nil, fmt.Errorf("zkvm: segment index %d out of range [0,%d)", index, len(r.segs))
	}
	return r.proveSegment(index)
}

// proveSegment seals segment index under its sub-seed.
func (r *SegmentRun) proveSegment(index int) (*SegmentReceipt, error) {
	segSeed := deriveSubSeed(&r.seed, "seg", index)
	return proveSegmentSeeded(r.segs[index], r.opts, &segSeed, r.bnd[index], r.bnd[index+1])
}

// Release returns the run's trace slabs and boundary trees to their
// pools. Idempotent; the run must not be used afterwards.
func (r *SegmentRun) Release() {
	r.releaseOnce.Do(func() {
		for _, b := range r.bnd[1:len(r.segs)] {
			b.release()
		}
		releaseSegments(r.segs)
	})
}
