// Command zkflowd is the prover daemon: it runs the collector (NetFlow
// v9 / sFlow datagrams → store + commitment ledger), fed by simulated
// routers or, with -ingest-addr, by outside exporters over UDP;
// aggregates every sealed epoch under a zkVM proof; and serves the
// public artifacts over HTTP (see internal/api) so remote clients
// (zkflow-verify) can audit the operator.
//
// Raw RLogs and the CLog never leave the process: everything served
// is either public by design (ledger, receipts) or a proven result.
package main

import (
	"flag"
	"log"
	"net"
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
)

// retention is how many epochs the store keeps.
const retention = 64

// simTraffic is the simulated routers' traffic: the paper's four
// vantage points over a 256-flow population with 2% packet loss.
var simTraffic = trafficgen.Config{Seed: 1, NumFlows: 256, Routers: 4, LossRate: 0.02}

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:8471", "HTTP listen address")
		records  = flag.Int("records", 50, "records per simulated router per epoch, injected into the collector (must be 0 with -ingest-addr)")
		epochs   = flag.Int("epochs", 3, "epochs to seal (0 = continuous)")
		interval = flag.Duration("interval", router.EpochSeconds*time.Second, "epoch interval between collector seals")

		debugAddr  = flag.String("debug-addr", "", "operator-only pprof listen address (empty = off; keep it loopback)")
		ingestAddr = flag.String("ingest-addr", "", "UDP listen address for outside NetFlow v9 / sFlow exporters (empty = no socket)")
	)
	flag.Parse()
	if *interval <= 0 {
		log.Fatalf("-interval must be positive, got %v", *interval)
	}
	if *ingestAddr != "" && *records > 0 {
		log.Fatalf("-ingest-addr takes outside exporters only (simulated routers would share their SourceIDs); pass -records 0")
	}

	st := store.Open(retention)
	lg := ledger.New()
	// One registry carries the whole daemon: zkVM stage timings, round
	// counters, and the HTTP layer, served at /api/v1/metrics.
	reg := obs.NewRegistry()
	// The prover seals at zkvm.DefaultChecks, the floor both clients
	// enforce, and cuts runs where zkvm does by default.
	prover := core.NewProver(st, lg, core.Options{Metrics: reg})
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

	agg := newAggregator(prover, lg, func(res *core.AggregationResult) {
		if err := srv.AddAggregationResult(res); err != nil {
			log.Printf("epoch %d: serving receipt: %v", res.Epoch, err)
			return
		}
		log.Printf("epoch %d: %d records -> %d flows, receipt %d B, root %v",
			res.Epoch, res.Journal.NumRecords, res.Journal.NewCount, res.Receipt.Size(), res.Journal.NewRoot.Bytes())
	})
	go agg.run()

	// One collector, fed in process by the simulated routers or, with
	// -ingest-addr, over UDP by outside exporters. One loop owns the
	// epoch clock: each interval it injects that epoch's traffic, then
	// seals; each sealed epoch with records is aggregated and served.
	pl, err := ingest.New(st, lg, ingest.Config{Addr: *ingestAddr, Metrics: reg})
	if err != nil {
		log.Fatalf("ingest: %v", err)
	}
	if err := pl.Start(); err != nil {
		log.Fatalf("ingest: %v", err)
	}
	if pl.Addr() != nil {
		log.Printf("ingest collector on udp://%s", pl.Addr())
	}
	gens := trafficgen.PerRouter(simTraffic)
	go func() {
		collect(pl, agg, gens, *records, *epochs, time.NewTicker(*interval).C)
		log.Printf("sealed %d epochs; collector closed, serving", *epochs)
	}()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("zkflowd listening on http://%s (%d routers, %d records/epoch, sealing every %v)", ln.Addr(), len(gens), *records, *interval)
	httpSrv := &http.Server{
		Handler:      srv.Handler(),
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 120 * time.Second,
	}
	log.Fatal(httpSrv.Serve(ln))
}

// collect is zkflowd's epoch loop. For each epoch it injects every
// simulated router's records for that epoch into the collector as
// NetFlow v9 datagrams, waits for the tick, and seals. After epochs
// seals (0 runs forever) it closes the collector: the final seal
// commits what outside exporters sent since the last tick, and every
// later Inject counts as dropped, so received == committed + dropped
// keeps holding.
func collect(pl *ingest.Pipeline, agg *aggregator, gens []*trafficgen.Generator, records, epochs int, tick <-chan time.Time) {
	var seq uint32
	for e := 0; epochs <= 0 || e < epochs; e++ {
		for r, g := range gens {
			for _, d := range trafficgen.Export(trafficgen.ProtoV9, uint32(r), g.Batch(uint32(r), uint64(e), records), 0, &seq) {
				pl.Inject(d)
			}
		}
		<-tick
		sealIngest(pl, agg)
	}
	pl.Close()
	// Seal after Close seals nothing and returns the epoch after the
	// final one, which the aggregator proves if it left a checkpoint.
	agg.sealedThrough(pl.Seal().Epoch - 1)
}

// sealIngest is one tick of the epoch loop: it seals the collector's
// current epoch, logs what the seal dropped, and hands an epoch with
// records to the aggregator.
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
