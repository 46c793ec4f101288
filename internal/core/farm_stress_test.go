package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"zkflow/internal/api"
	"zkflow/internal/core"
	"zkflow/internal/ledger"
	"zkflow/internal/lightsync"
	"zkflow/internal/obs"
	"zkflow/internal/remote"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
)

// TestFarmStressWorkerChurn runs a full operator for 16 epochs with
// every aggregation proof dispatched through a prover farm whose
// workers randomly join and leave between (and so also during) epochs,
// on a deterministic schedule. The resulting checkpoint chain must
// verify end to end through lightsync.Sync — the light client is the
// final arbiter that no failover ever corrupted, dropped, or
// double-proved an aggregation.
func TestFarmStressWorkerChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("farm churn stress is not a -short test")
	}
	const epochs = 16

	reg := obs.NewRegistry()
	coord := remote.NewCoordinator(remote.FarmConfig{
		HeartbeatEvery: 25 * time.Millisecond,
		Metrics:        reg,
	})
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })

	// Worker pool under deterministic churn.
	type liveWorker struct {
		cancel context.CancelFunc
		done   chan struct{}
	}
	var pool []liveWorker
	nextID := 0
	spawn := func(capacity int) {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		name := fmt.Sprintf("churn-%d", nextID)
		nextID++
		go func() {
			defer close(done)
			// Redial when the session drops, exactly as the zkflow-worker
			// command does: under -race the whole fleet runs slow enough
			// that the 3×25 ms staleness deadline can fire spuriously, and
			// a worker that stays down after that is not the deployment
			// story — reconnect-with-requeue is.
			for {
				remote.RunWorker(ctx, coord.Addr(), remote.WorkerConfig{Name: name, Capacity: capacity})
				select {
				case <-ctx.Done():
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
		}()
		pool = append(pool, liveWorker{cancel: cancel, done: done})
	}
	kill := func(i int) {
		w := pool[i]
		pool = append(pool[:i], pool[i+1:]...)
		w.cancel()
		select {
		case <-w.done:
		case <-time.After(5 * time.Second):
			t.Fatal("churned worker did not exit")
		}
	}
	t.Cleanup(func() {
		for len(pool) > 0 {
			kill(0)
		}
	})

	rng := rand.New(rand.NewSource(0xfa12)) // the deterministic churn schedule
	spawn(1 + rng.Intn(3))
	if err := coord.WaitForWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	// Operator with the farm as its proving backend. Small segments so
	// every aggregation fans out as a multi-segment continuation chain.
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: 7, NumFlows: 32, Routers: 2}, st, lg)
	prover := core.NewProver(st, lg, core.Options{
		Checks:        6,
		SegmentCycles: 4096,
		Prove:         coord.Prove,
	})
	srv := api.NewServer(prover, lg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	for e := uint64(0); e < epochs; e++ {
		// Churn before the epoch: maybe add a worker, maybe drop one —
		// but never below one, or proving would stall rather than fail.
		if rng.Intn(2) == 0 || len(pool) == 1 {
			spawn(1 + rng.Intn(3))
		}
		if len(pool) > 1 && rng.Intn(2) == 0 {
			kill(rng.Intn(len(pool)))
		}
		if _, err := sim.RunEpoch(context.Background(), e, 8); err != nil {
			t.Fatal(err)
		}
		res, err := prover.AggregateEpoch(e)
		if err != nil {
			t.Fatalf("epoch %d (workers=%d): %v", e, coord.Workers(), err)
		}
		if err := srv.AddAggregationResult(res); err != nil {
			t.Fatal(err)
		}
	}

	// The checkpoint chain must verify through the light client.
	cp, err := lg.CheckpointByEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	pin, err := lightsync.Pin(ts.URL, cp)
	if err != nil {
		t.Fatal(err)
	}
	client := api.New(ts.URL, api.WithHTTPClient(ts.Client()), api.WithCache())
	rep, err := lightsync.Sync(context.Background(), client, pin, lightsync.Options{Samples: 4, Seed: 42})
	if err != nil {
		t.Fatalf("lightsync over farm-proved chain: %v", err)
	}
	if pin.Checkpoint.Epoch != epochs-1 {
		t.Fatalf("pin stopped at epoch %d, want %d", pin.Checkpoint.Epoch, epochs-1)
	}
	if len(rep.NewEpochs) != epochs-1 {
		t.Fatalf("synced %d epochs, want %d", len(rep.NewEpochs), epochs-1)
	}
	if rep.ProofsChecked == 0 {
		t.Fatal("no inclusion proofs checked")
	}
	if err := pin.Check(); err != nil {
		t.Fatal(err)
	}

	// Farm-level sanity: everything was actually farmed out, and any
	// churn-induced requeues ended in exactly-once acceptance (counted
	// jobs = counted results, nothing stuck in flight).
	snap := reg.Snapshot()
	if snap.Counters["farm.jobs_dispatched"] == 0 {
		t.Fatal("no jobs ever dispatched through the farm")
	}
	if got := snap.Gauges["farm.jobs_inflight"]; got != 0 {
		t.Fatalf("%d jobs still in flight after the run", got)
	}
	if got := snap.Gauges["farm.jobs_queued"]; got != 0 {
		t.Fatalf("%d jobs still queued after the run", got)
	}
	t.Logf("farm stress: dispatched=%d requeued=%d dup=%d dead=%d",
		snap.Counters["farm.jobs_dispatched"], snap.Counters["farm.jobs_requeued"],
		snap.Counters["farm.results_duplicate"], snap.Counters["farm.workers_dead"])
}
