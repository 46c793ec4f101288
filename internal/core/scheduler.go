// Epoch-pipelined aggregation. Sealing a round (committing every
// execution-trace table under Merkle trees) is by far the dominant
// cost and is independent across rounds once the journal chain value
// is known — and the journal is a product of *executing* the guest,
// not of sealing it. The Scheduler exploits that: a serial witness
// stage executes each epoch's guest and advances a speculative CLog +
// journal-hash chain, a bounded seal stage proves executions
// concurrently, and an ordered commit stage appends results to the
// prover's history in strict submission order, so the journal hash
// chain and the served receipt sequence are identical to the serial
// prover's.

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"zkflow/internal/clog"
	"zkflow/internal/guest"
	"zkflow/internal/vmtree"
	"zkflow/internal/zkvm"
)

// SchedulerResult is one pipelined round's outcome, delivered in
// submission order.
type SchedulerResult struct {
	Epoch  uint64
	Result *AggregationResult // nil when Err is set
	Err    error
}

// pendingEpoch travels from the witness stage to the commit stage.
type pendingEpoch struct {
	epoch   uint64
	start   time.Time         // witness start, for sched.epoch_seconds
	words   []uint32          // guest input tape (for remote sealing)
	journal []uint32          // journal words from the witness execution
	parsed  *guest.AggJournal // parsed form of journal
	next    []clog.Entry      // speculative CLog after this epoch
	sealed  chan sealOutcome  // buffered(1); nil when err is set
	err     error             // witness-stage failure
}

type sealOutcome struct {
	receipt zkvm.AnyReceipt
	err     error
}

// Scheduler pipelines epoch aggregations over a Prover: witness
// generation for epoch N+1 overlaps the seal computation of epoch N,
// with at most depth seals in flight. Submit epochs in chain order,
// consume Results until closed, then Close. While the Scheduler is
// open it owns the prover's aggregation chain (AggregateEpoch returns
// ErrPipelineActive); queries remain available and see the last
// committed round.
type Scheduler struct {
	p       *Prover
	depth   int
	submit  chan uint64
	pending chan *pendingEpoch
	results chan SchedulerResult

	closeOnce sync.Once
	done      chan struct{}

	// Witness-stage speculative state (single goroutine).
	specEntries []clog.Entry
	specHash    vmtree.Digest
	failed      error
}

// NewScheduler opens a pipeline over p. depth <= 0 uses
// p.opts.PipelineDepth; a depth of 1 still overlaps one seal with the
// next witness. Only one Scheduler may be open per Prover.
func NewScheduler(p *Prover, depth int) (*Scheduler, error) {
	if depth <= 0 {
		depth = p.opts.PipelineDepth
	}
	if depth <= 0 {
		depth = 1
	}
	p.mu.Lock()
	if p.pipelining {
		p.mu.Unlock()
		return nil, ErrPipelineActive
	}
	p.pipelining = true
	entries := p.entries
	prevHash := p.prevJournalHash()
	p.mu.Unlock()

	s := &Scheduler{
		p:           p,
		depth:       depth,
		submit:      make(chan uint64),
		pending:     make(chan *pendingEpoch, depth),
		results:     make(chan SchedulerResult),
		done:        make(chan struct{}),
		specEntries: entries,
		specHash:    prevHash,
	}
	go s.witnessLoop()
	go s.commitLoop()
	return s, nil
}

// Submit queues an epoch for aggregation. It blocks while the
// pipeline is full (backpressure) and must not be called after Close.
func (s *Scheduler) Submit(epoch uint64) {
	s.p.met.epochQueued(1)
	s.submit <- epoch
}

// Results returns the ordered result stream. The channel closes after
// Close once every submitted epoch has been committed or discarded.
// Callers must drain it.
func (s *Scheduler) Results() <-chan SchedulerResult { return s.results }

// Close stops accepting submissions, waits for in-flight epochs to
// drain, and releases the prover. Safe to call more than once.
func (s *Scheduler) Close() {
	s.closeOnce.Do(func() { close(s.submit) })
	<-s.done
}

// witnessLoop is the serial stage: it executes each epoch's guest
// against the speculative chain state, advances that state from the
// execution's journal, and hands the execution to a bounded pool of
// sealers.
func (s *Scheduler) witnessLoop() {
	defer close(s.pending)
	sealSlots := make(chan struct{}, s.depth)
	for epoch := range s.submit {
		if s.failed != nil {
			s.pending <- &pendingEpoch{
				epoch: epoch,
				err:   fmt.Errorf("%w (epoch %d failed: %v)", ErrPipelineAborted, epoch, s.failed),
			}
			continue
		}
		pe, ex := s.witness(epoch)
		if pe.err != nil {
			s.failed = pe.err
			s.pending <- pe
			continue
		}
		s.specEntries = pe.next
		s.specHash = journalHash(pe.journal)
		sealSlots <- struct{}{} // at most depth seals in flight
		s.p.met.sealInFlight(1)
		pe.sealed = make(chan sealOutcome, 1)
		go func(pe *pendingEpoch, ex *zkvm.Execution) {
			defer func() {
				s.p.met.sealInFlight(-1)
				<-sealSlots
			}()
			span := s.p.met.span("seal")
			receipt, err := s.p.sealWitness(ex, pe.words)
			span.End()
			pe.sealed <- sealOutcome{receipt: receipt, err: err}
		}(pe, ex)
		s.pending <- pe
	}
}

// witness executes one epoch's guest against the speculative state.
func (s *Scheduler) witness(epoch uint64) (*pendingEpoch, *zkvm.Execution) {
	span := s.p.met.span("witness")
	defer span.End()
	pe := &pendingEpoch{epoch: epoch, start: time.Now()}
	agg, in, err := s.p.buildAggInput(epoch, s.specEntries, s.specHash)
	if err != nil {
		pe.err = err
		return pe, nil
	}
	words := agg.Words()
	ex, err := zkvm.Execute(guest.AggregationProgram(), words, zkvm.ExecOptions{})
	if err != nil {
		pe.err = fmt.Errorf("core: witness for epoch %d: %w", epoch, err)
		return pe, nil
	}
	if ex.ExitCode != 0 {
		// Same signal as the serial path: tampered telemetry aborts
		// the guest before any sealing work is spent on it.
		pe.err = fmt.Errorf("core: aggregation proof for epoch %d: %w", epoch,
			&zkvm.GuestAbortError{ExitCode: ex.ExitCode, Journal: ex.Journal})
		return pe, nil
	}
	j, err := guest.ParseAggJournal(ex.Journal)
	if err != nil {
		pe.err = fmt.Errorf("core: aggregation journal: %w", err)
		return pe, nil
	}
	next := guest.ReferenceAggregate(s.specEntries, in.Batches...)
	if got := entriesRoot(next); got != j.NewRoot {
		pe.err = fmt.Errorf("core: internal error: guest root %v, host root %v", j.NewRoot.Bytes(), got.Bytes())
		return pe, nil
	}
	pe.words, pe.journal, pe.parsed, pe.next = words, ex.Journal, j, next
	return pe, ex
}

// commitLoop is the ordered commit stage: results are appended to the
// prover's history in submission order, never out of order, so the
// receipt sequence served to auditors is exactly the serial one.
func (s *Scheduler) commitLoop() {
	defer close(s.done)
	defer func() {
		s.p.mu.Lock()
		s.p.pipelining = false
		s.p.mu.Unlock()
	}()
	defer close(s.results)
	var commitFailed error
	for pe := range s.pending {
		if pe.err == nil && commitFailed != nil {
			pe.err = fmt.Errorf("%w (epoch %d failed: %v)", ErrPipelineAborted, pe.epoch, commitFailed)
		}
		if pe.err != nil {
			if errors.Is(pe.err, ErrPipelineAborted) {
				s.p.met.epochDiscarded()
			} else {
				s.p.met.epochFailed()
			}
			s.p.met.epochQueued(-1)
			s.results <- SchedulerResult{Epoch: pe.epoch, Err: pe.err}
			continue
		}
		out := <-pe.sealed
		if out.err == nil && !journalWordsEqual(out.receipt.JournalWords(), pe.journal) {
			// A remote sealer re-executes the guest; its journal must
			// match the witness execution bit-for-bit.
			out.err = fmt.Errorf("core: sealed journal differs from witness for epoch %d", pe.epoch)
		}
		if out.err != nil {
			commitFailed = fmt.Errorf("core: aggregation proof for epoch %d: %w", pe.epoch, out.err)
			s.p.met.epochFailed()
			s.p.met.epochQueued(-1)
			s.results <- SchedulerResult{Epoch: pe.epoch, Err: commitFailed}
			continue
		}
		res := &AggregationResult{Epoch: pe.epoch, Receipt: out.receipt, Journal: pe.parsed}
		s.p.mu.Lock()
		s.p.entries = pe.next
		s.p.history = append(s.p.history, res)
		s.p.mu.Unlock()
		s.p.met.epochCommitted(time.Since(pe.start).Seconds())
		s.p.met.epochQueued(-1)
		s.results <- SchedulerResult{Epoch: pe.epoch, Result: res}
	}
}

// sealWitness turns a witnessed execution into a receipt: locally by
// sealing the already-traced execution, or via the configured remote
// ProveFunc (which re-executes on the worker). With SegmentCycles set
// the local path re-executes through the segmenting tracer — the
// witness execution cannot be re-cut after the fact — trading one
// cheap emulator pass (a few percent of seal time) for a composite
// receipt whose slices seal concurrently.
func (p *Prover) sealWitness(ex *zkvm.Execution, words []uint32) (zkvm.AnyReceipt, error) {
	po := p.opts.proveOptions()
	switch {
	case p.opts.Prove != nil:
		return p.opts.Prove(guest.AggregationProgram(), words, po)
	case po.SegmentCycles > 0:
		return zkvm.ProveSegmented(guest.AggregationProgram(), words, po)
	default:
		return zkvm.ProveExecution(ex, po)
	}
}

// AggregateEpochs pipelines the given epochs (in chain order) through
// a Scheduler with the prover's configured PipelineDepth and returns
// the ordered results. The first error is returned after the pipeline
// drains; results[i] is nil for failed or discarded epochs.
func (p *Prover) AggregateEpochs(epochs []uint64) ([]*AggregationResult, error) {
	s, err := NewScheduler(p, 0)
	if err != nil {
		return nil, err
	}
	go func() {
		for _, e := range epochs {
			s.Submit(e)
		}
		s.closeOnce.Do(func() { close(s.submit) })
	}()
	results := make([]*AggregationResult, 0, len(epochs))
	var firstErr error
	for r := range s.Results() {
		if r.Err != nil && firstErr == nil {
			firstErr = r.Err
		}
		results = append(results, r.Result)
	}
	s.Close()
	return results, firstErr
}

// journalHash is the chain hash of a journal: SHA-256 over the
// little-endian serialisation of its words (Receipt.JournalBytes).
func journalHash(words []uint32) vmtree.Digest {
	b := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(b[4*i:], w)
	}
	return vmtree.FromBytes(sha256.Sum256(b))
}

func journalWordsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
