// Command tamper reproduces the paper's §5/§6 tamper experiment: any
// post-commitment modification of telemetry makes proof generation
// fail (guest abort) or verification fail (hash/Merkle/receipt-chain
// mismatch). It exercises four attack surfaces: the raw log store,
// the published commitment ledger, a receipt's journal, and a replay
// of stale aggregation state.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"zkflow/internal/core"
	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
	"zkflow/internal/zkvm"
)

// missed counts the attacks that went undetected; any makes the
// command exit 1.
var missed int

func check(name string, attackDetected bool, detail string) {
	status := "DETECTED"
	if !attackDetected {
		status = "MISSED!!"
		missed++
	}
	fmt.Printf("%-34s %-9s %s\n", name, status, detail)
}

func freshPipeline(seed int64) (*store.Store, *ledger.Ledger, *core.Prover, *core.Verifier) {
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: seed, NumFlows: 32, Routers: 2}, st, lg)
	if err := sim.RunEpochs(context.Background(), 0, 2, 10); err != nil {
		log.Fatal(err)
	}
	return st, lg, core.NewProver(st, lg, core.Options{Checks: 12}), core.NewVerifier(lg)
}

func main() {
	log.SetFlags(0)
	fmt.Println("attack surface                     outcome   detail")
	fmt.Println("----------------------------------------------------------------------")

	// Attack 1: modify stored records after the commitment window.
	{
		st, _, prover, _ := freshPipeline(1)
		st.Append(0, 0, []netflow.Record{{Key: netflow.FlowKey{SrcIP: 0xbadf00d}, Packets: 1, StartUnix: 1, EndUnix: 2}})
		_, err := prover.AggregateEpoch(0)
		var abort *zkvm.GuestAbortError
		check("RLog mutated after commitment", errors.As(err, &abort),
			fmt.Sprintf("guest abort: %v", err))
	}

	// Attack 2: rewrite a published ledger entry under a pinned
	// checkpoint and serve it as the extension to the next one.
	{
		_, lg, _, _ := freshPipeline(2)
		cps := lg.Checkpoints()
		delta := lg.Entries()[cps[0].Count:cps[1].Count]
		delta[0].Hash[0] ^= 0xff
		err := ledger.VerifyExtension(cps[0], delta, cps[1])
		check("ledger history rewritten", err != nil, fmt.Sprintf("%v", err))
	}

	// Attack 3: falsify a journal word in a sound receipt.
	{
		_, _, prover, verifier := freshPipeline(3)
		res, err := prover.AggregateEpoch(0)
		if err != nil {
			log.Fatal(err)
		}
		journal := res.Receipt.(*zkvm.Receipt).Segments[0].Journal
		journal[len(journal)-1] ^= 1 // flip a root word
		_, err = verifier.VerifyAggregation(res.Receipt)
		check("receipt journal falsified", err != nil, fmt.Sprintf("%v", err))
	}

	// Attack 4: replay round 0's receipt after round 1 (stale state).
	{
		_, _, prover, verifier := freshPipeline(4)
		r0, err := prover.AggregateEpoch(0)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := verifier.VerifyAggregation(r0.Receipt); err != nil {
			log.Fatal(err)
		}
		r1, err := prover.AggregateEpoch(1)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := verifier.VerifyAggregation(r1.Receipt); err != nil {
			log.Fatal(err)
		}
		_, err = verifier.VerifyAggregation(r0.Receipt)
		check("stale aggregation replayed", errors.Is(err, core.ErrChainBroken), fmt.Sprintf("%v", err))
	}

	// Control: the untampered path still works end to end.
	{
		_, _, prover, verifier := freshPipeline(5)
		res, err := prover.AggregateEpoch(0)
		if err != nil {
			log.Fatal(err)
		}
		_, err = verifier.VerifyAggregation(res.Receipt)
		if err != nil {
			log.Fatalf("control run failed: %v", err)
		}
		fmt.Println("----------------------------------------------------------------------")
		fmt.Println("control (no tampering): aggregation proven and verified normally")
	}
	if missed > 0 {
		log.Fatalf("%d attack(s) missed", missed)
	}
}
