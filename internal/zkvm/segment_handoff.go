package zkvm

import (
	"errors"
	"fmt"
	"sync"

	"zkflow/internal/par"
)

// This file is the distributed-proving surface of the zkVM: everything
// a prover farm needs to split one guest run across workers and
// reassemble a composite receipt that is byte-identical to what a
// single prover would have produced.
//
// The contract rests on determinism: proveSegmentedSeeded derives every
// per-segment and per-boundary salt seed from one master seed by index,
// so any worker that (a) re-executes the guest — a cheap emulator pass,
// orders of magnitude under sealing cost — and (b) proves segment i
// under the same master seed emits the exact bytes the single prover
// would. The coordinator hands out (program, input, seed, index) tuples
// and concatenates the returned segment receipts with AssembleComposite.

// ProveSegmentedWithSeed is ProveSegmented under a caller-supplied
// master salt seed. Byte-deterministic: same program, input, options
// and seed produce the same composite receipt at any Parallelism (and
// across processes). Distributed proving uses it as the golden path;
// callers that do not need determinism should prefer ProveSegmented,
// which draws a fresh random seed.
func ProveSegmentedWithSeed(prog *Program, input []uint32, opts ProveOptions, seed [32]byte) (*CompositeReceipt, error) {
	return proveSegmentedSeeded(prog, input, opts, &seed)
}

// ProveWithSeed executes the guest over the private input and seals
// the run under a caller-supplied salt seed — byte-deterministic, the
// whole-run counterpart of ProveSegmentedWithSeed, used for farm jobs
// small enough to dispatch as a single unit. Trapped or aborted
// executions return an error and no receipt: tampered telemetry cannot
// be proven.
func ProveWithSeed(prog *Program, input []uint32, opts ProveOptions, seed [32]byte) (*Receipt, error) {
	execDone := stageTimer(opts.Observer, StageExecute)
	ex, err := execute(prog, input, ExecOptions{MaxSteps: opts.MaxSteps}, true)
	execDone()
	if err != nil {
		return nil, err
	}
	// The execution was created here and neither the receipt nor the
	// abort aliases its trace slabs, so they can go back to the pool.
	defer releaseExecution(ex)
	if ex.ExitCode != 0 && !opts.AllowNonZeroExit {
		return nil, &GuestAbortError{ExitCode: ex.ExitCode, Journal: ex.Journal}
	}
	return proveExecutionSeeded(ex, opts, &seed)
}

// PlanSegments executes the guest (emulation only, no tracing, no
// sealing) and returns the number of segments a segmented prove with
// these options would produce. A farm coordinator calls this once per
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
// as they would from ProveSegmented.
func PlanSegments(prog *Program, input []uint32, opts ProveOptions) (int, error) {
	m := newMachine(prog, input, opts.SegmentCycles, false)
	if err := m.run(opts.MaxSteps); err != nil {
		return 0, err
	}
	if code := m.exitCode(); code != 0 && !opts.AllowNonZeroExit {
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
	prog *Program
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
// The boundary MemRoots are fixed at construction, so concurrent
// ProveSegment calls only read shared state.
func NewSegmentRun(prog *Program, input []uint32, opts ProveOptions, seed [32]byte) (*SegmentRun, error) {
	execDone := stageTimer(opts.Observer, StageExecute)
	segs, err := executeSegmented(prog, input, ExecOptions{MaxSteps: opts.MaxSteps}, opts.SegmentCycles)
	execDone()
	if err != nil {
		return nil, err
	}
	last := segs[len(segs)-1]
	if last.ex.ExitCode != 0 && !opts.AllowNonZeroExit {
		journal := make([]uint32, 0)
		for _, s := range segs {
			journal = append(journal, s.ex.Journal...)
		}
		releaseSegments(segs)
		return nil, &GuestAbortError{ExitCode: last.ex.ExitCode, Journal: journal}
	}

	r := &SegmentRun{prog: prog, opts: opts, seed: seed, segs: segs}
	bndDone := stageTimer(opts.Observer, StageBoundaryCommit)
	r.bnd = make([]*table, len(segs)+1)
	for k := 1; k < len(segs); k++ {
		sub := deriveSubSeed(&seed, "bnd", k)
		r.bnd[k] = imageTable(newSalter(&sub), segs[k].entryImg)
	}
	commitTables(par.Workers(opts.Parallelism), r.bnd[1:len(segs)]...)
	for k := 1; k < len(segs); k++ {
		root := r.bnd[k].tree.Root()
		segs[k].entry.MemRoot = root
		segs[k-1].exit.MemRoot = root
	}
	bndDone()
	return r, nil
}

// Segments returns the segment count of the run.
func (r *SegmentRun) Segments() int { return len(r.segs) }

// ProveSegment seals segment index under the run's master seed. The
// returned receipt is byte-identical to Segments[index] of
// ProveSegmentedWithSeed(prog, input, opts, seed). Safe to call
// concurrently for different (or equal) indices.
func (r *SegmentRun) ProveSegment(index int) (*SegmentReceipt, error) {
	if index < 0 || index >= len(r.segs) {
		return nil, fmt.Errorf("zkvm: segment index %d out of range [0,%d)", index, len(r.segs))
	}
	return r.proveSegment(index, par.Workers(r.opts.Parallelism))
}

// proveSegment seals segment index on a crew of width workers.
func (r *SegmentRun) proveSegment(index, width int) (*SegmentReceipt, error) {
	segSeed := deriveSubSeed(&r.seed, "seg", index)
	return proveSegmentSeeded(r.segs[index], r.opts, &segSeed, r.bnd[index], r.bnd[index+1], width, segmentStatement)
}

// Release returns the run's trace slabs and boundary trees to their
// pools. Idempotent; the run must not be used afterwards.
func (r *SegmentRun) Release() {
	r.releaseOnce.Do(func() {
		for _, b := range r.bnd[1:len(r.segs)] {
			b.tree.Release()
		}
		releaseSegments(r.segs)
	})
}

// AssembleComposite orders independently proved segment receipts by
// index and checks they form one coherent chain: contiguous indices
// from zero, exactly one receipt per index, one final segment at the
// end, a single image ID, and exit(i) == entry(i+1) linkage. It does
// NOT verify the seals — callers that need cryptographic assurance run
// VerifyComposite on the result.
func AssembleComposite(receipts []*SegmentReceipt) (*CompositeReceipt, error) {
	n := len(receipts)
	if n == 0 {
		return nil, errors.New("zkvm: assemble: no segment receipts")
	}
	ordered := make([]*SegmentReceipt, n)
	for _, sr := range receipts {
		if sr == nil {
			return nil, errors.New("zkvm: assemble: nil segment receipt")
		}
		i := int(sr.Index)
		if i >= n {
			return nil, fmt.Errorf("zkvm: assemble: segment index %d with only %d receipts", i, n)
		}
		if ordered[i] != nil {
			return nil, fmt.Errorf("zkvm: assemble: duplicate receipt for segment %d", i)
		}
		ordered[i] = sr
	}
	img := ordered[0].ImageID
	for i, sr := range ordered {
		if sr.ImageID != img {
			return nil, fmt.Errorf("zkvm: assemble: segment %d image mismatch", i)
		}
		if sr.Final != (i == n-1) {
			return nil, fmt.Errorf("zkvm: assemble: segment %d final flag %v in a %d-segment chain", i, sr.Final, n)
		}
		if i > 0 && ordered[i].Entry != ordered[i-1].Exit {
			return nil, fmt.Errorf("zkvm: assemble: boundary %d entry/exit mismatch", i)
		}
	}
	return &CompositeReceipt{Segments: ordered}, nil
}

// MarshalSegmentReceipt encodes one segment receipt standalone — the
// unit a farm worker ships back to the coordinator: the segment magic,
// then exactly the segment's section of CompositeReceipt.MarshalBinary.
func MarshalSegmentReceipt(sr *SegmentReceipt) ([]byte, error) {
	w := &bwriter{}
	w.u32(magicSegment)
	writeSegment(w, sr)
	return w.buf, w.err
}

// UnmarshalSegmentReceipt decodes a standalone segment receipt.
func UnmarshalSegmentReceipt(data []byte) (*SegmentReceipt, error) {
	rd := &breader{buf: data}
	if rd.u32() != magicSegment {
		return nil, errors.New("zkvm: bad segment receipt magic")
	}
	sr := readSegment(rd)
	if rd.err != nil {
		return nil, rd.err
	}
	if rd.off != len(data) {
		return nil, errors.New("zkvm: trailing bytes after segment receipt")
	}
	return sr, nil
}
