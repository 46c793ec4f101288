// The epoch path. Every aggregation round runs through AggregateEpochs.
// The host computes each round's journal without executing the guest
// (guest.ReferenceAggregate + guest.ReferenceJournal), so a backlog is
// proved a window of par.Workers() epochs at a time: witness the window
// against the committed chain, seal it side by side through the one
// proving hook, commit in order. With one worker a window is one epoch.

package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"zkflow/internal/clog"
	"zkflow/internal/guest"
	"zkflow/internal/par"
	"zkflow/internal/router"
	"zkflow/internal/vmtree"
	"zkflow/internal/zkvm"
)

// round is one epoch of a window, from its witness to its commit.
type round struct {
	epoch   uint64
	start   time.Time         // witness start, for core.agg_seconds
	words   []uint32          // the guest's input tape; nil when the witness failed
	journal []uint32          // the host's reference journal
	parsed  *guest.AggJournal // parsed form of journal
	hash    vmtree.Digest     // hash of journal, which the next round chains to
	next    []clog.Entry      // the CLog after this epoch
	receipt zkvm.AnyReceipt
	err     error
}

// AggregateEpochs is AggregateEpoch once per epoch, in order: the same
// committed chain and the same journals, word for word, and a failed
// epoch leaves the chain where it was while later epochs still prove.
// results[i] belongs to epochs[i] and is nil where that epoch failed;
// the error joins every failure, each naming its epoch. Concurrent
// calls run one after another.
func (p *Prover) AggregateEpochs(epochs []uint64) ([]*AggregationResult, error) {
	p.aggMu.Lock()
	defer p.aggMu.Unlock()
	results := make([]*AggregationResult, len(epochs))
	var errs []error
	for i := 0; i < len(epochs); {
		window := p.witness(epochs[i:min(i+par.Workers(), len(epochs))])
		par.Each(len(window), len(window), func(k int) { p.seal(window[k]) })
		for k, r := range window {
			results[i] = p.commit(r)
			i++
			if r.err == nil {
				continue
			}
			errs = append(errs, r.err)
			if r.words != nil {
				// A failed seal: the rest of the window stands on it.
				for _, later := range window[k+1:] {
					if later.words != nil {
						p.met.discarded.Inc()
					}
				}
				break
			}
		}
	}
	return results, errors.Join(errs...)
}

// witness builds each epoch's guest input from the store and the
// ledger, chained to the committed chain and then to the epochs before
// it in the window, and derives the CLog and the journal the guest must
// produce — without executing it. An epoch whose witness fails leaves
// the chain for the next one where it was.
func (p *Prover) witness(epochs []uint64) []*round {
	p.mu.Lock()
	entries, prevHash, prevRoot := p.entries, p.lastHash, p.lastRoot
	p.mu.Unlock()

	window := make([]*round, len(epochs))
	for k, epoch := range epochs {
		r := &round{epoch: epoch, start: time.Now()}
		window[k] = r
		in, err := router.CollectEpoch(p.store, p.ledger, epoch)
		if err != nil {
			r.err = fmt.Errorf("core: collecting epoch %d: %w", epoch, err)
			p.met.witnessDone(r.start)
			continue
		}
		agg := &guest.AggInput{
			PrevJournalHash: prevHash,
			PrevRoot:        prevRoot,
			Epoch:           uint32(epoch),
			PrevEntries:     entries,
		}
		for i, id := range in.Routers {
			agg.Routers = append(agg.Routers, guest.RouterBatch{
				ID:         id,
				Commitment: vmtree.FromBytes(in.Commitments[i].Hash),
				Records:    in.Batches[i],
			})
		}
		r.next = guest.ReferenceAggregate(entries, in.Batches...)
		r.journal = guest.ReferenceJournal(agg, r.next)
		if r.parsed, err = guest.ParseAggJournal(r.journal); err != nil {
			r.err = fmt.Errorf("core: reference journal for epoch %d: %w", epoch, err)
		} else {
			r.words = agg.Words()
			r.hash = vmtree.HashWords(r.journal)
			entries, prevHash, prevRoot = r.next, r.hash, r.parsed.NewRoot
		}
		p.met.witnessDone(r.start)
	}
	return window
}

// seal proves one witnessed round and requires its receipt to journal
// the reference journal word for word.
func (p *Prover) seal(r *round) {
	if r.err != nil {
		return
	}
	start := time.Now()
	r.receipt, r.err = p.opts.prove(guest.AggregationProgram(), r.words)
	p.met.sealDone(start)
	if r.err == nil && !slices.Equal(r.receipt.JournalWords(), r.journal) {
		r.err = errors.New("the receipt's journal differs from the reference journal")
	}
	if r.err != nil {
		r.err = fmt.Errorf("core: aggregation proof for epoch %d: %w", r.epoch, r.err)
	}
}

// commit counts the round and, unless it failed, moves the prover's
// chain tip to it. The receipt is the seal of r.journal word for word,
// so r.hash is its journal's hash.
func (p *Prover) commit(r *round) *AggregationResult {
	p.met.aggDone(time.Since(r.start).Seconds(), r.receipt, r.err)
	if r.err != nil {
		return nil
	}
	res := &AggregationResult{Epoch: r.epoch, Receipt: r.receipt, Journal: r.parsed}
	p.mu.Lock()
	p.entries = r.next
	p.rounds++
	p.lastHash, p.lastRoot = r.hash, r.parsed.NewRoot
	p.mu.Unlock()
	return res
}
