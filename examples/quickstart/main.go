// Command quickstart walks the full zkflow pipeline in-process: four
// routers generate NetFlow records and publish hash commitments, the
// prover aggregates two epochs under zkVM proofs, and an independent
// verifier — holding only public data — validates the aggregation
// chain and a proven query (the literal example query from the
// paper's §6).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"zkflow/internal/core"
	"zkflow/internal/ledger"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
)

func main() {
	log.SetFlags(0)

	// 1. Collection tier: 4 routers, shared store, public ledger.
	st := store.Open(16)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{
		Seed:     42,
		NumFlows: 64,
		Routers:  4,
		LossRate: 0.02,
	}, st, lg)

	const epochs = 2
	fmt.Printf("routers: %d   epochs: %d (commit interval %ds)\n",
		len(sim.Routers), epochs, router.EpochSeconds)
	if err := sim.RunEpochs(context.Background(), 0, epochs, 25); err != nil {
		log.Fatalf("collection: %v", err)
	}
	fmt.Printf("ledger: %d commitments\n", lg.Len())

	// 2. Prover: aggregate each epoch (Algorithm 1, proven in the VM).
	prover := core.NewProver(st, lg, core.Options{Checks: 16})
	verifier := core.NewVerifier(lg)
	for epoch := uint64(0); epoch < epochs; epoch++ {
		t0 := time.Now()
		res, err := prover.AggregateEpoch(epoch)
		if err != nil {
			log.Fatalf("aggregate epoch %d: %v", epoch, err)
		}
		genTime := time.Since(t0)

		t0 = time.Now()
		j, err := verifier.VerifyAggregation(res.Receipt)
		if err != nil {
			log.Fatalf("verify epoch %d: %v", epoch, err)
		}
		fmt.Printf("epoch %d: %4d records -> %4d flows | proof %6.0fms (%d B seal) | verify %4.1fms | root %v\n",
			epoch, j.NumRecords, j.NewCount, genTime.Seconds()*1000,
			res.Receipt.SealSize(), time.Since(t0).Seconds()*1000, j.NewRoot.Bytes())
	}

	// 3. A client asks the paper's query and verifies the answer
	// without ever seeing a single NetFlow record.
	sql := `SELECT SUM(hop_count) FROM clogs WHERE proto = 6;`
	qr, err := prover.Query(sql)
	if err != nil {
		log.Fatalf("query: %v", err)
	}
	j, err := verifier.VerifyQuery(sql, qr.Receipt)
	if err != nil {
		log.Fatalf("verify query: %v", err)
	}
	fmt.Printf("\n%s\n  -> %d over %d flows (receipt %d B, VERIFIED against root %v)\n",
		sql, j.Result(), j.Matched, qr.Receipt.Size(), verifier.TrustedRoot().Bytes())
}
