// Package router simulates the paper's data-collection tier: a set of
// routers, each with a dedicated goroutine, generating NetFlow records
// into the shared store and publishing a hash commitment of each
// epoch's log to the public ledger (the paper's 5-second integrity
// window maps to one epoch here).
package router

import (
	"context"
	"fmt"

	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/par"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
)

// EpochSeconds is the paper's commitment interval.
const EpochSeconds = 5

// Router is one simulated vantage point.
type Router struct {
	ID  uint32
	Gen *trafficgen.Generator
}

// Sim wires routers to a store and ledger.
type Sim struct {
	Routers []*Router
	Store   *store.Store
	Ledger  *ledger.Ledger
}

// NewSim builds a simulation with cfg.Routers vantage points, each
// driven by an independent deterministic generator.
func NewSim(cfg trafficgen.Config, st *store.Store, lg *ledger.Ledger) *Sim {
	gens := trafficgen.PerRouter(cfg)
	sim := &Sim{Store: st, Ledger: lg}
	for i, g := range gens {
		sim.Routers = append(sim.Routers, &Router{ID: uint32(i), Gen: g})
	}
	return sim
}

// RunEpoch has every router, in parallel, generate recordsPerRouter
// records for the epoch, append them to the store, and publish the
// epoch hash commitment. It returns the per-router record batches in
// router order.
func (s *Sim) RunEpoch(ctx context.Context, epoch uint64, recordsPerRouter int) ([][]netflow.Record, error) {
	batches := make([][]netflow.Record, len(s.Routers))
	errs := make([]error, len(s.Routers))
	par.Each(len(s.Routers), len(s.Routers), func(i int) {
		r := s.Routers[i]
		if ctx.Err() != nil {
			errs[i] = ctx.Err()
			return
		}
		recs := r.Gen.Batch(r.ID, epoch, recordsPerRouter)
		if dropped, err := s.Store.Append(epoch, r.ID, recs); err != nil {
			errs[i] = fmt.Errorf("router %d: %d records refused: %w", r.ID, dropped, err)
			return
		}
		_, err := s.Ledger.Publish(r.ID, epoch, ledger.CommitRecords(recs))
		if err != nil {
			errs[i] = fmt.Errorf("router %d: %w", r.ID, err)
			return
		}
		batches[i] = recs
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// All routers published: seal the epoch's ledger checkpoint so
	// light clients have a head to sync to (see ledger/checkpoint.go).
	if _, err := s.Ledger.SealEpoch(epoch); err != nil {
		return nil, fmt.Errorf("sealing epoch %d: %w", epoch, err)
	}
	return batches, nil
}

// RunEpochs runs n consecutive epochs starting at firstEpoch.
func (s *Sim) RunEpochs(ctx context.Context, firstEpoch uint64, n, recordsPerRouter int) error {
	for e := uint64(0); e < uint64(n); e++ {
		if _, err := s.RunEpoch(ctx, firstEpoch+e, recordsPerRouter); err != nil {
			return err
		}
	}
	return nil
}

// EpochInputs gathers, for one epoch, each router's records from the
// store together with its published commitment — exactly the inputs
// Algorithm 1 consumes. Routers are returned in ascending ID order.
type EpochInputs struct {
	Epoch       uint64
	Routers     []uint32
	Batches     [][]netflow.Record
	Commitments []ledger.Commitment
}

// CollectEpoch assembles the aggregation inputs for an epoch.
func CollectEpoch(st *store.Store, lg *ledger.Ledger, epoch uint64) (*EpochInputs, error) {
	routers, err := st.Routers(epoch)
	if err != nil {
		return nil, fmt.Errorf("router: epoch %d: %w", epoch, err)
	}
	if len(routers) == 0 {
		return nil, fmt.Errorf("router: no data for epoch %d", epoch)
	}
	in := &EpochInputs{Epoch: epoch, Routers: routers}
	for _, id := range routers {
		recs, err := st.Epoch(epoch, id)
		if err != nil {
			return nil, err
		}
		com, err := lg.Lookup(id, epoch)
		if err != nil {
			return nil, err
		}
		in.Batches = append(in.Batches, recs)
		in.Commitments = append(in.Commitments, com)
	}
	return in, nil
}
