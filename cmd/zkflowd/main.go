// Command zkflowd is the prover daemon: it runs the simulated
// collection tier (routers → store + commitment ledger), aggregates
// every epoch under a zkVM proof, and serves the public artifacts
// over HTTP (see internal/api) so remote clients (zkflow-verify) can
// audit the operator.
//
// Raw RLogs and the CLog never leave the process: everything served
// is either public by design (ledger, receipts) or a proven result.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"zkflow/internal/api"
	"zkflow/internal/core"
	"zkflow/internal/ingest"
	"zkflow/internal/ledger"
	"zkflow/internal/obs"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
	"zkflow/internal/zkvm"
)

// retention is how many epochs the store keeps.
const retention = 64

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:8471", "HTTP listen address")
		routers  = flag.Int("routers", 4, "simulated routers")
		records  = flag.Int("records", 50, "records per router per epoch")
		epochs   = flag.Int("epochs", 3, "epochs to run (0 = continuous)")
		interval = flag.Duration("interval", router.EpochSeconds*time.Second, "epoch interval: between simulated epochs in continuous mode, and between ingest seals")
		checks   = flag.Int("checks", zkvm.DefaultChecks, "zkVM sampled checks per proof")
		seed     = flag.Int64("seed", 1, "workload seed")
		flows    = flag.Int("flows", 256, "flow population size")
		loss     = flag.Float64("loss", 0.02, "packet loss rate")
		segCyc   = flag.Int("segment-cycles", 0, "prove aggregations as continuation chains sliced every N cycles (0 = one segment)")

		debugAddr = flag.String("debug-addr", "", "operator-only pprof listen address (empty = off; keep it loopback)")

		ingestAddr    = flag.String("ingest-addr", "", "UDP collector listen address for NetFlow v9 / sFlow exports (empty = simulated collection)")
		ingestShards  = flag.Int("ingest-shards", 4, "ingest worker shards (routers map to shards by ID)")
		replayRecords = flag.Int("replay-records", 0, "self-replay this many records per router per epoch over UDP into the collector (demo/smoke mode)")
	)
	flag.Parse()

	st := store.Open(retention)
	lg := ledger.New()
	// One registry carries the whole daemon: zkVM stage timings, round
	// counters, and the HTTP layer, served at /api/v1/metrics.
	reg := obs.NewRegistry()
	opts := core.Options{Checks: *checks, SegmentCycles: *segCyc, Metrics: reg}
	prover := core.NewProver(st, lg, opts)
	srv := api.NewServer(prover, lg)
	srv.UseRegistry(reg)

	// The pprof mux is a separate listener, never the public API one:
	// heap and CPU profiles of the prover are operator-only artifacts.
	if *debugAddr != "" {
		go func() {
			log.Printf("debug (pprof) listening on http://%s/debug/pprof/", *debugAddr)
			log.Printf("debug listener failed: %v", http.ListenAndServe(*debugAddr, obs.DebugHandler()))
		}()
	}

	agg := newAggregator(prover, lg, retention, func(res *core.AggregationResult) {
		if err := srv.AddAggregationResult(res); err != nil {
			log.Printf("epoch %d: serving receipt: %v", res.Epoch, err)
			return
		}
		log.Printf("epoch %d: %d records -> %d flows, receipt %d B, root %v",
			res.Epoch, res.Journal.NumRecords, res.Journal.NewCount, res.Receipt.Size(), res.Journal.NewRoot.Bytes())
	})
	go agg.run()

	mode := fmt.Sprintf("%d routers, %d records/epoch", *routers, *records)
	if *ingestAddr != "" {
		// Ingest mode: real UDP collection replaces the simulated tier.
		// One loop owns the epoch clock: each interval it replays that
		// interval's traffic (with -replay-records), then seals; each
		// sealed epoch with records is aggregated and served exactly
		// like a simulated one.
		mode = "ingest mode"
		pl, err := ingest.New(st, lg, ingest.Config{Addr: *ingestAddr, Shards: *ingestShards, Metrics: reg})
		if err != nil {
			log.Fatalf("ingest: %v", err)
		}
		if err := pl.Start(); err != nil {
			log.Fatalf("ingest: %v", err)
		}
		go func() {
			cfg := trafficgen.Config{Seed: *seed, NumFlows: *flows, Routers: *routers, LossRate: *loss}
			tick := time.NewTicker(*interval)
			for e := 0; ; e++ {
				if *replayRecords > 0 && (*epochs <= 0 || e < *epochs) {
					if _, err := trafficgen.Replay(*ingestAddr, cfg, trafficgen.ReplayOptions{
						Epochs:           1,
						RecordsPerRouter: *replayRecords,
						Protocol:         trafficgen.ProtoV9,
					}); err != nil {
						log.Printf("replay: %v", err)
					}
				}
				<-tick.C
				sealIngest(pl, agg)
			}
		}()
		log.Printf("ingest collector on udp://%s (%d shards, sealing every %v)", pl.Addr(), *ingestShards, *interval)
	} else {
		sim := router.NewSim(trafficgen.Config{
			Seed: *seed, NumFlows: *flows, Routers: *routers, LossRate: *loss,
		}, st, lg)
		go func() {
			for epoch := uint64(0); *epochs <= 0 || epoch < uint64(*epochs); epoch++ {
				agg.waitForRoom(epoch)
				if _, err := sim.RunEpoch(context.Background(), epoch, *records); err != nil {
					log.Printf("epoch %d collection failed: %v", epoch, err)
					return
				}
				agg.sealedThrough(epoch)
				if *epochs <= 0 {
					time.Sleep(*interval)
				}
			}
			agg.waitTried(uint64(*epochs))
			log.Printf("finished after %d rounds; serving", prover.Round())
		}()
	}

	log.Printf("zkflowd listening on http://%s (%s)", *listen, mode)
	httpSrv := &http.Server{
		Addr:         *listen,
		Handler:      srv.Handler(),
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 120 * time.Second,
	}
	log.Fatal(httpSrv.ListenAndServe())
}

// sealIngest is one tick of ingest mode's epoch loop: it seals the
// collector's current epoch, logs what the seal dropped, and hands an
// epoch with records to the aggregator.
func sealIngest(pl *ingest.Pipeline, agg *aggregator) ingest.Seal {
	s := pl.Seal()
	if s.Dropped > 0 {
		log.Printf("epoch %d: %d records dropped at commit (see ingest.records_dropped.* metrics)", s.Epoch, s.Dropped)
	}
	if s.Records > 0 {
		agg.sealedThrough(s.Epoch)
	}
	return s
}
