package main

import (
	"context"
	"errors"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"zkflow/internal/api"
	"zkflow/internal/core"
	"zkflow/internal/ingest"
	"zkflow/internal/ledger"
	"zkflow/internal/lightsync"
	"zkflow/internal/netflow"
	"zkflow/internal/obs"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
)

// startPipeline starts a socketless collector, closed at cleanup.
func startPipeline(t *testing.T, st *store.Store, lg *ledger.Ledger) *ingest.Pipeline {
	t.Helper()
	pl, err := ingest.New(st, lg, ingest.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pl.Close() })
	return pl
}

// ticks is an epoch clock that has already ticked n times.
func ticks(n int) <-chan time.Time {
	c := make(chan time.Time, n)
	for range n {
		c <- time.Time{}
	}
	return c
}

// waitServed reads n served rounds, failing if they take too long.
func waitServed(t *testing.T, served <-chan *core.AggregationResult, n int) []*core.AggregationResult {
	t.Helper()
	var out []*core.AggregationResult
	deadline := time.After(time.Minute)
	for len(out) < n {
		select {
		case res := <-served:
			out = append(out, res)
		case <-deadline:
			t.Fatalf("served %d rounds, want %d", len(out), n)
		}
	}
	return out
}

// verifyServed checks the served rounds are exactly the wanted epochs,
// in order, and that they verify as one chain over lg.
func verifyServed(t *testing.T, lg *ledger.Ledger, served []*core.AggregationResult, want []uint64) {
	t.Helper()
	v := core.NewVerifier(lg)
	v.SetMinChecks(8)
	var got []uint64
	for _, res := range served {
		got = append(got, res.Epoch)
		if _, err := v.VerifyAggregation(res.Receipt); err != nil {
			t.Fatalf("epoch %d: %v", res.Epoch, err)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("served epochs %v, want %v", got, want)
	}
}

// TestIngestSealsProveInOrder drives the epoch loop's body the way the
// daemon's clock does: v9 datagrams injected into a collector, then
// one sealIngest per epoch. Epoch 2 gets no traffic. Every epoch with
// records must commit, in order, and the chain must verify.
func TestIngestSealsProveInOrder(t *testing.T) {
	const epochs, routers = 5, 2
	st := store.Open(retention)
	lg := ledger.New()
	prover := core.NewProver(st, lg, core.Options{Checks: 8})
	served := make(chan *core.AggregationResult, epochs)
	agg := newAggregator(prover, lg, func(res *core.AggregationResult) { served <- res })
	go agg.run()

	pl := startPipeline(t, st, lg)
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
	verifyServed(t, lg, waitServed(t, served, len(want)), want)
	if prover.Round() != len(want) {
		t.Fatalf("%d rounds, want %d", prover.Round(), len(want))
	}
}

// TestCollectEvictsUnreadEpochs: collection never waits for the
// prover. Over a store that keeps two epochs, four epochs sealed
// before the aggregator starts leave epochs 0 and 1 evicted unread:
// they fail with store.ErrEvicted and are counted in core.agg_failures,
// and epochs 2 and 3 commit as a chain that verifies.
func TestCollectEvictsUnreadEpochs(t *testing.T) {
	st := store.Open(2)
	lg := ledger.New()
	reg := obs.NewRegistry()
	prover := core.NewProver(st, lg, core.Options{Checks: 8, Metrics: reg})
	served := make(chan *core.AggregationResult, 4)
	agg := newAggregator(prover, lg, func(res *core.AggregationResult) { served <- res })

	pl := startPipeline(t, st, lg)
	gens := trafficgen.PerRouter(trafficgen.Config{Seed: 7, NumFlows: 32, Routers: 2})
	collect(pl, agg, gens, 16, 4, ticks(4))
	go agg.run()

	verifyServed(t, lg, waitServed(t, served, 2), []uint64{2, 3})
	for e := uint64(0); e < 2; e++ {
		if _, err := router.CollectEpoch(st, lg, e); !errors.Is(err, store.ErrEvicted) {
			t.Fatalf("epoch %d: %v, want store.ErrEvicted", e, err)
		}
	}
	if n := reg.Counter("core.agg_failures").Value(); n != 2 {
		t.Fatalf("core.agg_failures = %d, want 2", n)
	}
}

// TestCollectClosesTheCollector: after its last seal collect closes
// the collector, so a datagram injected later is counted as dropped,
// never left buffered, and received == committed + dropped holds.
func TestCollectClosesTheCollector(t *testing.T) {
	st := store.Open(retention)
	lg := ledger.New()
	agg := newAggregator(core.NewProver(st, lg, core.Options{Checks: 8}), lg, func(*core.AggregationResult) {})
	pl := startPipeline(t, st, lg)
	gens := trafficgen.PerRouter(trafficgen.Config{Seed: 7, NumFlows: 32, Routers: 2})
	collect(pl, agg, gens, 16, 2, ticks(2))
	pl.Inject(netflow.EncodeV9(&netflow.ExportPacket{SourceID: 9, Records: gens[0].Batch(0, 2, 16)}))
	if s := pl.Stats(); s.Committed != 2*2*16 || s.DroppedQueue != 16 || s.Unaccounted() != 0 {
		t.Fatalf("after collect: %+v", s)
	}
}

// TestCollectServesAGrowingVerifiedChain drives the daemon's loop end
// to end: collect runs five epochs into a collector, the aggregator
// serves each round through the HTTP API, and every epoch commits in
// order with the CLog growing each epoch (each epoch injects its own
// traffic, not epoch 0's again). A light client and a full auditor
// then verify what was served, over HTTP.
func TestCollectServesAGrowingVerifiedChain(t *testing.T) {
	const epochs = 5
	st := store.Open(retention)
	lg := ledger.New()
	prover := core.NewProver(st, lg, core.Options{Checks: 8})
	srv := api.NewServer(prover, lg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	served := make(chan *core.AggregationResult, epochs)
	agg := newAggregator(prover, lg, func(res *core.AggregationResult) {
		if err := srv.AddAggregationResult(res); err != nil {
			t.Error(err)
		}
		served <- res
	})
	go agg.run()

	pl := startPipeline(t, st, lg)
	gens := trafficgen.PerRouter(trafficgen.Config{Seed: 7, NumFlows: 256, Routers: 2, LossRate: 0.02})
	collect(pl, agg, gens, 40, epochs, ticks(epochs))
	var flows uint32
	for i, res := range waitServed(t, served, epochs) {
		if res.Epoch != uint64(i) || res.Journal.NewCount <= flows {
			t.Fatalf("round %d: epoch %d with %d flows, after %d", i, res.Epoch, res.Journal.NewCount, flows)
		}
		flows = res.Journal.NewCount
	}

	ctx := context.Background()
	c := api.New(ts.URL, api.WithHTTPClient(ts.Client()))
	cp, err := c.CheckpointByEpoch(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	light, err := lightsync.Pin(ts.URL, cp)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lightsync.Sync(ctx, c, light, lightsync.Options{Samples: epochs, Seed: 1, MinChecks: 8})
	if err != nil {
		t.Fatalf("light sync: %v", err)
	}
	if rep.To.Epoch != epochs-1 || len(rep.SampledRounds) == 0 {
		t.Fatalf("light sync reached epoch %d sampling %v", rep.To.Epoch, rep.SampledRounds)
	}

	auditLedger, err := c.Ledger(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v := core.NewVerifier(auditLedger)
	v.SetMinChecks(8)
	for round := range epochs {
		receipt, err := c.AggregationReceipt(ctx, round)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.VerifyAggregation(receipt); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
