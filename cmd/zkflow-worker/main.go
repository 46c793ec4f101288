// Command zkflow-worker is an off-path proving node (paper §7,
// "off-path computation"): a prover-farm worker that dials the zkflowd
// coordinator, registers its capacity, and proves dispatched jobs —
// whole aggregations or individual zkVM segments — reconnecting with
// backoff whenever the coordinator restarts or the link drops. One
// worker moves all heavy cryptographic work off the collection path;
// more of them prove an epoch's segments side by side:
//
//	zkflowd -farm-addr 127.0.0.1:8491 -workers 1
//	zkflow-worker -farm-addr 127.0.0.1:8491 -capacity 2 -name rack1
//
// -listen serves the worker's own /metrics and /healthz to its operator.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"zkflow/internal/obs"
	"zkflow/internal/remote"
)

func main() {
	var (
		farmAddr = flag.String("farm-addr", "", "farm coordinator address to dial")
		capacity = flag.Int("capacity", 1, "concurrent proving jobs offered to the coordinator")
		name     = flag.String("name", "", "worker display name reported to the coordinator")
		listen   = flag.String("listen", "", "operator-only /metrics and /healthz listen address (empty = off; keep it loopback)")
	)
	flag.Parse()
	if *farmAddr == "" {
		log.Fatal("zkflow-worker: -farm-addr is required (start the coordinator with zkflowd -farm-addr)")
	}

	reg := obs.NewRegistry()
	if *listen != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.MetricsHandler(reg))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, "ok") })
		go func() {
			log.Printf("metrics listening on http://%s/metrics", *listen)
			log.Printf("metrics listener failed: %v", http.ListenAndServe(*listen, mux))
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := remote.WorkerConfig{Name: *name, Capacity: *capacity, Metrics: reg}

	// Reconnect loop: a dead coordinator (or a network blip) is retried
	// with capped exponential backoff; a successful session resets it.
	backoff := time.Second
	const maxBackoff = 30 * time.Second
	for {
		start := time.Now()
		err := remote.RunWorker(ctx, *farmAddr, cfg)
		if ctx.Err() != nil {
			log.Printf("worker shutting down")
			return
		}
		if time.Since(start) > maxBackoff {
			backoff = time.Second // the session worked for a while; reset
		}
		log.Printf("farm session ended (%v); reconnecting in %v", err, backoff)
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}
