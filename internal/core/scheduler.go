// The epoch path. Every aggregation round, serial or pipelined, runs
// through a Scheduler's three stages. Round N+1's guest input needs
// round N's journal, and the host can compute that journal without
// executing the guest: a serial witness stage builds each epoch's input
// against a speculative CLog + journal chain and derives the reference
// journal (guest.ReferenceAggregate + guest.ReferenceJournal). A
// bounded seal stage proves the epochs through the one proving hook
// (Options.Prove, or local zkvm.ProveAny), where the guest executes
// exactly once. An ordered commit stage requires each receipt to
// journal the reference journal word for word and appends results to
// the prover's history in strict submission order, so the journal hash
// chain and the served receipt sequence are the same at any depth.
// AggregateEpoch is the depth-1 case.

package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"zkflow/internal/clog"
	"zkflow/internal/guest"
	"zkflow/internal/router"
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
	start   time.Time         // witness start, for core.agg_seconds
	journal []uint32          // the host's reference journal
	parsed  *guest.AggJournal // parsed form of journal
	next    []clog.Entry      // speculative CLog after this epoch
	sealed  chan sealOutcome  // buffered(1); nil when err is set
	err     error             // witness-stage failure, or discarded unsealed
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

	// Witness-stage speculative state (single goroutine): the CLog and
	// the journal chain after the last witnessed epoch.
	specEntries []clog.Entry
	specHash    vmtree.Digest
	specRoot    vmtree.Digest
}

// NewScheduler opens a pipeline over p with at most depth seals in
// flight (depth < 1 is 1). Only one Scheduler may be open per Prover.
func NewScheduler(p *Prover, depth int) (*Scheduler, error) {
	depth = max(depth, 1)
	p.mu.Lock()
	if p.pipelining {
		p.mu.Unlock()
		return nil, ErrPipelineActive
	}
	p.pipelining = true
	s := &Scheduler{
		p:           p,
		depth:       depth,
		submit:      make(chan uint64),
		pending:     make(chan *pendingEpoch, depth),
		results:     make(chan SchedulerResult),
		done:        make(chan struct{}),
		specEntries: p.entries,
	}
	if n := len(p.history); n > 0 {
		last := p.history[n-1]
		s.specHash = vmtree.HashWords(last.Receipt.JournalWords())
		s.specRoot = last.Journal.NewRoot
	}
	p.mu.Unlock()

	go s.witnessLoop()
	go s.commitLoop()
	return s, nil
}

// Submit queues an epoch for aggregation. It blocks while the
// pipeline is full (backpressure) and must not be called after Close.
func (s *Scheduler) Submit(epoch uint64) {
	s.p.met.queueDepth.Add(1)
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

// witnessLoop is the serial stage: it witnesses each epoch against the
// speculative chain state, advances that state, and hands the epoch's
// tape to a bounded pool of sealers. After a witness or seal failure
// every later epoch is discarded without a seal.
func (s *Scheduler) witnessLoop() {
	defer close(s.pending)
	sealSlots := make(chan struct{}, s.depth)
	var sealFailed atomic.Bool
	failed := false
	for epoch := range s.submit {
		if failed {
			s.pending <- &pendingEpoch{epoch: epoch, err: ErrPipelineAborted}
			continue
		}
		pe, words := s.witness(epoch)
		if pe.err == nil {
			sealSlots <- struct{}{} // at most depth seals in flight
			if sealFailed.Load() {
				<-sealSlots
				pe.err = ErrPipelineAborted
			}
		}
		if pe.err != nil {
			failed = true
			s.pending <- pe
			continue
		}
		s.specEntries, s.specHash, s.specRoot = pe.next, vmtree.HashWords(pe.journal), pe.parsed.NewRoot
		s.p.met.inflightSeals.Add(1)
		pe.sealed = make(chan sealOutcome, 1)
		go func() {
			defer func() {
				s.p.met.inflightSeals.Add(-1)
				<-sealSlots
			}()
			start := time.Now()
			receipt, err := s.p.opts.prove(guest.AggregationProgram(), words)
			s.p.met.sealDone(start)
			if err != nil {
				sealFailed.Store(true) // before the slot frees
			}
			pe.sealed <- sealOutcome{receipt: receipt, err: err}
		}()
		s.pending <- pe
	}
}

// witness builds one epoch's guest input from the store and the
// ledger, chained to the speculative state, and derives the CLog and
// the journal the guest must produce — without executing it.
func (s *Scheduler) witness(epoch uint64) (*pendingEpoch, []uint32) {
	pe := &pendingEpoch{epoch: epoch, start: time.Now()}
	defer s.p.met.witnessDone(pe.start)
	in, err := router.CollectEpoch(s.p.store, s.p.ledger, epoch)
	if err != nil {
		pe.err = fmt.Errorf("core: collecting epoch %d: %w", epoch, err)
		return pe, nil
	}
	agg := &guest.AggInput{
		PrevJournalHash: s.specHash,
		PrevRoot:        s.specRoot,
		Epoch:           uint32(epoch),
		PrevEntries:     s.specEntries,
	}
	for i, id := range in.Routers {
		agg.Routers = append(agg.Routers, guest.RouterBatch{
			ID:         id,
			Commitment: vmtree.FromBytes(in.Commitments[i].Hash),
			Records:    in.Batches[i],
		})
	}
	pe.next = guest.ReferenceAggregate(s.specEntries, in.Batches...)
	pe.journal = guest.ReferenceJournal(agg, pe.next)
	if pe.parsed, err = guest.ParseAggJournal(pe.journal); err != nil {
		pe.err = fmt.Errorf("core: reference journal for epoch %d: %w", epoch, err)
		return pe, nil
	}
	return pe, agg.Words()
}

// commitLoop is the ordered commit stage: results are appended to the
// prover's history in submission order, never out of order, so the
// receipt sequence served to auditors is the same at any depth.
func (s *Scheduler) commitLoop() {
	defer close(s.done)
	defer func() {
		s.p.mu.Lock()
		s.p.pipelining = false
		s.p.mu.Unlock()
	}()
	defer close(s.results)
	var failed error // the first failure; every later epoch is discarded
	for pe := range s.pending {
		var res *AggregationResult
		var err error
		if failed != nil {
			if pe.sealed != nil {
				<-pe.sealed // no seal outlives Close
			}
			err = fmt.Errorf("%w (%v)", ErrPipelineAborted, failed)
			s.p.met.discarded.Inc()
		} else {
			res, err = s.commit(pe)
			s.p.met.aggDone(time.Since(pe.start).Seconds(), err)
			failed = err
		}
		s.p.met.queueDepth.Add(-1)
		s.results <- SchedulerResult{Epoch: pe.epoch, Result: res, Err: err}
	}
}

// commit waits for pe's seal, requires the receipt to journal the
// reference journal, and appends the round to the prover's history.
func (s *Scheduler) commit(pe *pendingEpoch) (*AggregationResult, error) {
	if pe.err != nil {
		return nil, pe.err
	}
	out := <-pe.sealed
	if out.err == nil && !slices.Equal(out.receipt.JournalWords(), pe.journal) {
		out.err = errors.New("the receipt's journal differs from the reference journal")
	}
	if out.err != nil {
		return nil, fmt.Errorf("core: aggregation proof for epoch %d: %w", pe.epoch, out.err)
	}
	res := &AggregationResult{Epoch: pe.epoch, Receipt: out.receipt, Journal: pe.parsed}
	s.p.mu.Lock()
	s.p.entries = pe.next
	s.p.history = append(s.p.history, res)
	s.p.mu.Unlock()
	return res, nil
}

// AggregateEpochs pipelines the given epochs (in chain order) through
// a Scheduler of the given depth and returns the ordered results. The
// first error is returned after the pipeline drains; results[i] is nil
// for failed or discarded epochs.
func (p *Prover) AggregateEpochs(epochs []uint64, depth int) ([]*AggregationResult, error) {
	s, err := NewScheduler(p, depth)
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
