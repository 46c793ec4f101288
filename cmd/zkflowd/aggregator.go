package main

import (
	"log"
	"sync/atomic"

	"zkflow/internal/core"
	"zkflow/internal/ledger"
)

// aggregator is zkflowd's one epoch prover, for both collection modes.
// Collection reports "sealed through epoch E" without blocking; the
// aggregator proves every epoch sealed since its last call (the ledger
// holds its checkpoint: inside a seal the store holds an epoch before
// the ledger does) in one AggregateEpochs call, serves each committed
// round and logs each failed one. The store keeps only the latest
// retention epochs, so simulated collection calls waitForRoom before
// each epoch and never evicts one unread. UDP ingest cannot wait: an
// epoch it evicts unread fails with store.ErrEvicted and is logged.
type aggregator struct {
	prover      *core.Prover
	ledger      *ledger.Ledger
	retention   uint64
	serve       func(*core.AggregationResult)
	sealedBelow atomic.Uint64 // every epoch below it is sealed
	triedBelow  atomic.Uint64 // every epoch below it has committed or failed
	wake        chan struct{} // one slot, so wakes coalesce
	progress    chan struct{} // likewise, to the one waiting collector
}

func newAggregator(p *core.Prover, lg *ledger.Ledger, retention uint64, serve func(*core.AggregationResult)) *aggregator {
	return &aggregator{prover: p, ledger: lg, retention: retention, serve: serve,
		wake: make(chan struct{}, 1), progress: make(chan struct{}, 1)}
}

func notify(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

func (a *aggregator) sealedThrough(epoch uint64) {
	for cur := a.sealedBelow.Load(); cur <= epoch && !a.sealedBelow.CompareAndSwap(cur, epoch+1); cur = a.sealedBelow.Load() {
	}
	notify(a.wake)
}

// waitTried blocks until every epoch below the given one has committed
// or failed. One goroutine waits at a time.
func (a *aggregator) waitTried(below uint64) {
	for a.triedBelow.Load() < below {
		<-a.progress
	}
}

// waitForRoom blocks until storing epoch evicts nothing unread.
func (a *aggregator) waitForRoom(epoch uint64) {
	if epoch >= a.retention {
		a.waitTried(epoch - a.retention + 1)
	}
}

func (a *aggregator) run() {
	for range a.wake {
		from, below := a.triedBelow.Load(), a.sealedBelow.Load()
		var backlog []uint64
		for _, cp := range a.ledger.Checkpoints() {
			if cp.Epoch >= from && cp.Epoch < below {
				backlog = append(backlog, cp.Epoch)
			}
		}
		results, err := a.prover.AggregateEpochs(backlog)
		if err != nil {
			log.Printf("aggregation failed: %v", err)
		}
		for _, res := range results {
			if res != nil {
				a.serve(res)
			}
		}
		a.triedBelow.Store(below)
		notify(a.progress)
	}
}
