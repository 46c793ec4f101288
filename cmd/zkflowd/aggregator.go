package main

import (
	"log"
	"sync/atomic"

	"zkflow/internal/core"
	"zkflow/internal/ledger"
)

// aggregator is zkflowd's one epoch prover. Collection reports "sealed
// through epoch E" without blocking; the aggregator proves every epoch
// sealed since its last call (the ledger holds its checkpoint: inside a
// seal the store holds an epoch before the ledger does) in one
// AggregateEpochs call, serves each committed round and logs each
// failed one. Collection never waits for it: the store keeps only the
// latest retention epochs, and an epoch evicted unread fails with
// store.ErrEvicted, logged here and counted in core.agg_failures.
type aggregator struct {
	prover      *core.Prover
	ledger      *ledger.Ledger
	serve       func(*core.AggregationResult)
	sealedBelow atomic.Uint64 // every epoch below it is sealed
	wake        chan struct{} // one slot, so wakes coalesce
}

func newAggregator(p *core.Prover, lg *ledger.Ledger, serve func(*core.AggregationResult)) *aggregator {
	return &aggregator{prover: p, ledger: lg, serve: serve, wake: make(chan struct{}, 1)}
}

func (a *aggregator) sealedThrough(epoch uint64) {
	for cur := a.sealedBelow.Load(); cur <= epoch && !a.sealedBelow.CompareAndSwap(cur, epoch+1); cur = a.sealedBelow.Load() {
	}
	select {
	case a.wake <- struct{}{}:
	default:
	}
}

func (a *aggregator) run() {
	var triedBelow uint64 // every epoch below it has committed or failed
	for range a.wake {
		below := a.sealedBelow.Load()
		var backlog []uint64
		for _, cp := range a.ledger.Checkpoints() {
			if cp.Epoch >= triedBelow && cp.Epoch < below {
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
		triedBelow = below
	}
}
