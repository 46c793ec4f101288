// Command zkflow-verify is the client (auditor) CLI: it connects to a
// zkflowd operator, downloads the public commitment ledger and every
// aggregation receipt, verifies the entire chain locally, and then —
// optionally — submits a query and verifies the proven answer against
// the chain-derived trusted root. At no point does it see any raw
// telemetry.
//
// Usage:
//
//	zkflow-verify -server http://127.0.0.1:8471 \
//	    -query 'SELECT SUM(hop_count) FROM clogs WHERE proto = 6;'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"zkflow/internal/api"
	"zkflow/internal/core"
	"zkflow/internal/guest"
	"zkflow/internal/statefile"
	"zkflow/internal/zkvm"
)

func main() {
	var (
		serverURL = flag.String("server", "http://127.0.0.1:8471", "zkflowd base URL")
		sql       = flag.String("query", "", "SQL query to prove and verify (optional)")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-request HTTP timeout")
		stateFile = flag.String("state", "", "auditor state file: resume a verified chain and persist progress")
	)
	flag.Parse()
	log.SetFlags(0)
	ctx := context.Background()
	client := api.New(*serverURL, api.WithTimeout(*timeout))

	status, err := client.Status(ctx)
	if err != nil {
		log.Fatalf("status: %v", err)
	}
	fmt.Printf("operator: %d rounds aggregated, %d ledger commitments\n", status.Rounds, status.LedgerLen)

	// 1. Download the public commitment ledger. A commitment is
	// trusted through the receipt journal that consumed it (step 2).
	lg, err := client.Ledger(ctx)
	if err != nil {
		log.Fatalf("ledger INVALID: %v", err)
	}
	fmt.Printf("ledger: %d commitments, each checked against the journal that consumed it\n", lg.Len())

	// 2. Verify every aggregation receipt in order, resuming from a
	// persisted auditor state when one exists.
	verifier := core.NewVerifier(lg)
	if *stateFile != "" {
		if f, err := os.Open(*stateFile); err == nil {
			verifier, err = core.LoadVerifier(f, lg)
			f.Close()
			if err != nil {
				log.Fatalf("state file: %v", err)
			}
			fmt.Printf("resuming from persisted state: %d rounds already verified\n", verifier.Rounds())
		}
	}
	// An operator that serves fewer rounds than were verified went
	// backwards: nothing it serves extends the verified chain.
	if status.Rounds < verifier.Rounds() {
		log.Fatalf("aggregation chain REGRESSED: the operator serves %d rounds, %d already verified", status.Rounds, verifier.Rounds())
	}
	// The state file carries no floor: set it on a loaded verifier too.
	verifier.SetMinChecks(zkvm.DefaultChecks)
	image := guest.AggregationProgram().ID()
	fmt.Printf("aggregation image %x\n", image[:])
	for round := verifier.Rounds(); round < status.Rounds; round++ {
		receipt, err := client.AggregationReceipt(ctx, round)
		if err != nil {
			log.Fatalf("receipt %d: %v", round, err)
		}
		t0 := time.Now()
		j, err := verifier.VerifyAggregation(receipt)
		if err != nil {
			log.Fatalf("round %d verification FAILED: %v", round, err)
		}
		fmt.Printf("round %d: epoch %d, %d records, %d flows, root %v — VERIFIED (%d-segment chain, %.3g bits) in %.1f ms\n",
			round, j.Epoch, j.NumRecords, j.NewCount, j.NewRoot.Bytes(), receipt.NumSegments(),
			zkvm.Soundness(receipt).Headline.Bits, time.Since(t0).Seconds()*1000)
	}
	fmt.Printf("aggregation chain VERIFIED; trusted root %v\n", verifier.TrustedRoot().Bytes())
	if *stateFile != "" {
		if err := statefile.Write(*stateFile, verifier.SaveState); err != nil {
			log.Fatalf("state file: %v", err)
		}
		fmt.Printf("auditor state saved to %s\n", *stateFile)
	}

	// 3. Optional proven query.
	if *sql == "" {
		return
	}
	// The server sends the receipt alone; the answer is its journal.
	_, receipt, err := client.Query(ctx, *sql)
	if err != nil {
		log.Fatalf("query: %v", err)
	}
	t0 := time.Now()
	j, err := verifier.VerifyQuery(*sql, receipt)
	if err != nil {
		log.Fatalf("query verification FAILED: %v", err)
	}
	fmt.Printf("\n%s\n  result %d — VERIFIED (%d matched flows, %.3g bits, %.1f ms, receipt %d B)\n",
		*sql, j.Result(), j.Matched, zkvm.Soundness(receipt).Headline.Bits, time.Since(t0).Seconds()*1000, receipt.Size())
}
