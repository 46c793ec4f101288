// Command sketches demonstrates the paper's claim that the design
// accommodates "any logging or sketching algorithm" (§1): routers
// summarise an epoch as Count-Min sketches instead of raw NetFlow
// records, publish hash commitments over the sketches, and the
// operator proves — in the zkVM — that the merged sketch and a set of
// per-flow estimates were computed from exactly the committed
// sketches. The auditor checks the receipt and reads heavy-hitter
// estimates without ever seeing a counter it wasn't shown.
package main

import (
	"fmt"
	"log"
	"time"

	"zkflow/internal/guest"
	"zkflow/internal/netflow"
	"zkflow/internal/sketch"
	"zkflow/internal/trafficgen"
	"zkflow/internal/zkvm"
)

const (
	depth = 4
	width = 1024
)

func main() {
	log.SetFlags(0)

	// Routers sketch an epoch of traffic instead of logging records.
	gens := trafficgen.PerRouter(trafficgen.Config{Seed: 11, NumFlows: 200, Routers: 4})
	var batches []guest.SketchBatch
	truth := map[netflow.FlowKey]uint32{} // ground truth for the demo
	for i, g := range gens {
		s := sketch.MustNew(depth, width)
		for _, rec := range g.Batch(uint32(i), 0, 400) {
			s.AddRecord(&rec)
			truth[rec.Key] += rec.Packets
		}
		batches = append(batches, guest.SketchBatch{
			ID:         uint32(i),
			Commitment: guest.CommitSketch(s), // published like an RLog hash
			Sketch:     s,
		})
		fmt.Printf("router %d: committed a %dx%d sketch (%d B), L1=%d packets\n",
			i, depth, width, 4*(2+depth*width), s.L1())
	}

	// The auditor picks flows to interrogate (public queries).
	var candidates []netflow.FlowKey
	for k := range truth {
		candidates = append(candidates, k)
		if len(candidates) == 6 {
			break
		}
	}

	// Operator proves the merge + estimates in the zkVM.
	prog := guest.SketchMergeProgram(depth, width)
	t0 := time.Now()
	receipt, err := zkvm.Prove(prog, guest.SketchInput(batches, candidates), zkvm.ProveOptions{Checks: 16})
	if err != nil {
		log.Fatalf("prove: %v", err)
	}
	fmt.Printf("\nmerge+estimate proof: %.0f ms, receipt %d B\n",
		time.Since(t0).Seconds()*1000, receipt.Size())

	// Auditor verifies and reads the journal.
	if err := zkvm.Verify(prog, receipt, zkvm.VerifyOptions{}); err != nil {
		log.Fatalf("verify: %v", err)
	}
	j, err := guest.ParseSketchJournal(receipt.JournalWords())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified: %d router sketches merged, merged digest %v\n\n",
		j.NumRouters, j.MergedDigest.Bytes())
	fmt.Printf("%-44s %10s %10s\n", "flow", "proven est", "truth")
	for i, k := range j.Queries {
		fmt.Printf("%-44s %10d %10d\n", k, j.Estimates[i], truth[k])
		if j.Estimates[i] < truth[k] {
			log.Fatal("Count-Min underestimated — impossible for honest sketches")
		}
	}
	fmt.Println("\nEvery estimate ≥ truth (Count-Min property), proven over committed sketches.")
}
