package main

import (
	"context"
	"slices"
	"testing"

	"zkflow/internal/core"
	"zkflow/internal/ingest"
	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
)

// TestAggregatorProvesEveryEpochPastRetention drives the aggregator the
// way simulated collection does, over a store that keeps three epochs,
// for ten epochs collected as fast as the simulator runs. Every epoch
// must commit, in order, and the chain must verify: collection may not
// evict an epoch before the aggregator has read it.
func TestAggregatorProvesEveryEpochPastRetention(t *testing.T) {
	const retention, epochs = 3, 10
	st := store.Open(retention)
	lg := ledger.New()
	prover := core.NewProver(st, lg, core.Options{Checks: 8})
	served := make(chan *core.AggregationResult, epochs)
	agg := newAggregator(prover, lg, retention, func(res *core.AggregationResult) { served <- res })
	go agg.run()

	sim := router.NewSim(trafficgen.Config{Seed: 7, NumFlows: 32, Routers: 2, LossRate: 0.02}, st, lg)
	for e := uint64(0); e < epochs; e++ {
		agg.waitForRoom(e)
		if _, err := sim.RunEpoch(context.Background(), e, 16); err != nil {
			t.Fatal(err)
		}
		agg.sealedThrough(e)
	}
	agg.waitTried(epochs)
	close(served)

	v := core.NewVerifier(lg)
	v.SetMinChecks(8)
	var got []uint64
	for res := range served {
		got = append(got, res.Epoch)
		if _, err := v.VerifyAggregation(res.Receipt); err != nil {
			t.Fatalf("epoch %d: %v", res.Epoch, err)
		}
	}
	want := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !slices.Equal(got, want) || prover.Round() != epochs {
		t.Fatalf("served epochs %v (%d rounds), want %v", got, prover.Round(), want)
	}
}

// TestIngestSealsProveInOrder drives ingest mode's epoch loop body the
// way the daemon's clock does: v9 datagrams injected into a collector,
// then one sealIngest per epoch. Epoch 2 gets no traffic. Every epoch
// with records must commit, in order, and the chain must verify.
func TestIngestSealsProveInOrder(t *testing.T) {
	const epochs, routers = 5, 2
	st := store.Open(retention)
	lg := ledger.New()
	prover := core.NewProver(st, lg, core.Options{Checks: 8})
	served := make(chan *core.AggregationResult, epochs)
	agg := newAggregator(prover, lg, retention, func(res *core.AggregationResult) { served <- res })
	go agg.run()

	pl, err := ingest.New(st, lg, ingest.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Start(); err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	gen := trafficgen.New(trafficgen.Config{Seed: 7, NumFlows: 32, Routers: routers})
	var want []uint64
	for e := uint64(0); e < epochs; e++ {
		if e != 2 {
			for r := uint32(0); r < routers; r++ {
				pl.Inject(netflow.EncodeV9(&netflow.ExportPacket{SourceID: r, Records: gen.Batch(r, e, 16)}))
			}
			want = append(want, e)
		}
		if s := sealIngest(pl, agg); s.Epoch != e || s.Dropped != 0 {
			t.Fatalf("seal %d = %+v", e, s)
		}
	}
	agg.waitTried(epochs)
	close(served)

	v := core.NewVerifier(lg)
	v.SetMinChecks(8)
	var got []uint64
	for res := range served {
		got = append(got, res.Epoch)
		if _, err := v.VerifyAggregation(res.Receipt); err != nil {
			t.Fatalf("epoch %d: %v", res.Epoch, err)
		}
	}
	if !slices.Equal(got, want) || prover.Round() != len(want) {
		t.Fatalf("served epochs %v (%d rounds), want %v", got, prover.Round(), want)
	}
}
