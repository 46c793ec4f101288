package zkflow_test

// Benchmarks regenerating the paper's evaluation artifacts (one per
// table/figure; see DESIGN.md §4 for the experiment index and the table
// at the head of EXPERIMENTS.md for which function regenerates which
// entry). The size ladder ends at the paper's 3000 records. These are
// the figures' generators, not the repository's reference benchmark:
// that is `go run ./bench` (BENCHMARK.json).

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"zkflow/internal/clog"
	"zkflow/internal/core"
	"zkflow/internal/fastagg"
	"zkflow/internal/gperm"
	"zkflow/internal/guest"
	"zkflow/internal/ledger"
	"zkflow/internal/merkle"
	"zkflow/internal/netflow"
	"zkflow/internal/query"
	"zkflow/internal/router"
	"zkflow/internal/stark"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
	"zkflow/internal/vmtree"
	"zkflow/internal/zkvm"
)

var benchSizes = []int{50, 100, 500, 1000, 3000}

// genesisInput mirrors the paper's 4-router topology for one round.
func genesisInput(seed int64, records int) *guest.AggInput {
	const routers = 4
	gens := trafficgen.PerRouter(trafficgen.Config{
		Seed: seed, NumFlows: records, Routers: routers, LossRate: 0.02,
	})
	in := &guest.AggInput{}
	per := records / routers
	for i, g := range gens {
		n := per
		if i == routers-1 {
			n = records - per*(routers-1)
		}
		recs := g.Batch(uint32(i), 0, n)
		in.Routers = append(in.Routers, guest.RouterBatch{
			ID:         uint32(i),
			Commitment: vmtree.FromBytes(ledger.CommitRecords(recs)),
			Records:    recs,
		})
	}
	return in
}

func entriesOf(in *guest.AggInput) []clog.Entry {
	var batches [][]netflow.Record
	for _, b := range in.Routers {
		batches = append(batches, b.Records)
	}
	return guest.ReferenceAggregate(nil, batches...)
}

// BenchmarkAggregationProof is E1/Figure 4's aggregation series. It
// reports the collections per proof (gcs/op) too: whether a collection
// falls inside the timed proofs sets how many pooled slabs are re-made,
// so B/op reads in two modes that gcs/op tells apart.
func BenchmarkAggregationProof(b *testing.B) {
	for _, size := range benchSizes {
		in := genesisInput(int64(size), size)
		words := in.Words()
		b.Run(fmt.Sprintf("records=%d", size), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := zkvm.Prove(guest.AggregationProgram(), words, zkvm.ProveOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gcs/op")
		})
	}
}

const paperQuery = `SELECT SUM(hop_count) FROM clogs WHERE src_ip = "1.1.1.1" AND dst_ip = "9.9.9.9";`

// BenchmarkQueryProof is E1/Figure 4's query series.
func BenchmarkQueryProof(b *testing.B) {
	prog := guest.QueryProgram(query.MustParse(paperQuery))
	for _, size := range benchSizes {
		input := guest.QueryInput(entriesOf(genesisInput(int64(size), size)))
		b.Run(fmt.Sprintf("records=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := zkvm.Prove(prog, input, zkvm.ProveOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerify is E1/Figure 4's flat verification line: the cost
// must not grow with the record count.
func BenchmarkVerify(b *testing.B) {
	for _, size := range []int{50, 1000} {
		in := genesisInput(int64(size), size)
		receipt, err := zkvm.Prove(guest.AggregationProgram(), in.Words(), zkvm.ProveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("records=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := zkvm.Verify(guest.AggregationProgram(), receipt, zkvm.VerifyOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReceiptSize is E2/Table 1: it reports seal/journal/receipt
// bytes as metrics instead of time.
func BenchmarkReceiptSize(b *testing.B) {
	for _, size := range benchSizes {
		in := genesisInput(int64(size), size)
		receipt, err := zkvm.Prove(guest.AggregationProgram(), in.Words(), zkvm.ProveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("records=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = receipt.Size()
			}
			b.ReportMetric(float64(receipt.SealSize()), "seal-B")
			b.ReportMetric(float64(4*len(receipt.JournalWords())), "journal-B")
			b.ReportMetric(float64(receipt.Size()), "receipt-B")
		})
	}
}

// BenchmarkProveParallel is E5/§7 proof parallelization: the same
// single-segment aggregation proof at the crew width GOMAXPROCS sets.
// Run it with -cpu 1,2,4 (make bench-parallel) to see the wall-clock
// side of the trade; receipts are byte-identical at every width
// (asserted by TestParallelProveDeterminism).
func BenchmarkProveParallel(b *testing.B) {
	words := genesisInput(5, 1000).Words()
	for i := 0; i < b.N; i++ {
		if _, err := zkvm.Prove(guest.AggregationProgram(), words, zkvm.ProveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregateEpochs measures the epoch path end to end on a
// 4-epoch chain: seq makes four AggregateEpoch calls, batch one
// AggregateEpochs call of four, which seals GOMAXPROCS epochs at a time.
// Both commit the same journal chain (asserted by
// TestAggregateEpochsMatchesSequential).
func BenchmarkAggregateEpochs(b *testing.B) {
	epochs := []uint64{0, 1, 2, 3}
	run := func(b *testing.B, aggregate func(p *core.Prover) error) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st := store.Open(0)
			lg := ledger.New()
			sim := router.NewSim(trafficgen.Config{
				Seed: 21, NumFlows: 192, Routers: 4, LossRate: 0.02,
			}, st, lg)
			if err := sim.RunEpochs(context.Background(), 0, len(epochs), 64); err != nil {
				b.Fatal(err)
			}
			p := core.NewProver(st, lg, core.Options{Checks: 16})
			b.StartTimer()
			if err := aggregate(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("seq", func(b *testing.B) {
		run(b, func(p *core.Prover) error {
			for _, e := range epochs {
				if _, err := p.AggregateEpoch(e); err != nil {
					return err
				}
			}
			return nil
		})
	})
	b.Run("batch", func(b *testing.B) {
		run(b, func(p *core.Prover) error {
			_, err := p.AggregateEpochs(epochs)
			return err
		})
	})
}

// BenchmarkFastAggVsZKVM is E6/§7 specialized proving: hashes per
// second under the three prover architectures, each beside the bits of
// soundness its proofs carry (zkvm.Soundness's headline, and
// stark.Soundness for the chain AIR's degree-3 constraints).
func BenchmarkFastAggVsZKVM(b *testing.B) {
	var block [16]uint32
	for i := range block {
		block[i] = uint32(i + 1)
	}
	b.Run("zkvm-software-sha256", func(b *testing.B) {
		const hashes = 4
		input := guest.SoftSHA256Input(hashes, block)
		prog := guest.SoftSHA256ChainProgram()
		var r *zkvm.Receipt
		for i := 0; i < b.N; i++ {
			var err error
			if r, err = zkvm.Prove(prog, input, zkvm.ProveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(hashes*b.N)/b.Elapsed().Seconds(), "hashes/s")
		b.ReportMetric(zkvm.Soundness(r).Headline.Bits, "bits")
	})
	b.Run("zkvm-precompile", func(b *testing.B) {
		const hashes = 1024
		input := guest.SoftSHA256Input(hashes, block)
		prog := guest.PrecompileHashChainProgram()
		var r *zkvm.Receipt
		for i := 0; i < b.N; i++ {
			var err error
			if r, err = zkvm.Prove(prog, input, zkvm.ProveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(hashes*b.N)/b.Elapsed().Seconds(), "hashes/s")
		b.ReportMetric(zkvm.Soundness(r).Headline.Bits, "bits")
	})
	b.Run("specialized-stark", func(b *testing.B) {
		var seed gperm.State
		seed[0] = 9
		const n = 2048 // 255 permutations per proof
		for i := 0; i < b.N; i++ {
			if _, err := fastagg.Prove(seed, n, stark.DefaultParams); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(((n-1)/gperm.Rounds)*b.N)/b.Elapsed().Seconds(), "hashes/s")
		b.ReportMetric(stark.Soundness(stark.DefaultParams, n, 3), "bits")
	})
}

// BenchmarkTreeRebuildVsIncremental is the DESIGN.md §5 ablation: the
// paper's guests rebuild the whole Merkle tree in-VM (their measured
// bottleneck); host-side incremental updates show what an optimised
// design could save.
func BenchmarkTreeRebuildVsIncremental(b *testing.B) {
	entries := entriesOf(genesisInput(6, 1000))
	// A full rebuild rehashes every entry into its leaf, as the guest does.
	leaves := func() []merkle.Hash {
		digests := clog.LeafDigests(entries)
		out := make([]merkle.Hash, len(digests))
		for i, d := range digests {
			out[i] = d.Bytes()
		}
		return out
	}
	b.Run("full-rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = merkle.BuildHashes(leaves()).Root()
		}
	})
	b.Run("incremental-one-leaf", func(b *testing.B) {
		t := merkle.BuildHashes(leaves())
		h := merkle.LeafHash([]byte("updated"))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := t.Update(i%len(entries), h); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSealSecurityLevels is the DESIGN.md §5 soundness-knob
// ablation: sampled-check count vs. proving cost and seal size.
func BenchmarkSealSecurityLevels(b *testing.B) {
	in := genesisInput(7, 200)
	words := in.Words()
	for _, checks := range []int{16, 48, 128} {
		b.Run(fmt.Sprintf("checks=%d", checks), func(b *testing.B) {
			var receipt *zkvm.Receipt
			var err error
			for i := 0; i < b.N; i++ {
				receipt, err = zkvm.Prove(guest.AggregationProgram(), words, zkvm.ProveOptions{Checks: checks})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(receipt.SealSize()), "seal-B")
		})
	}
}

// BenchmarkPrecompileVsSoftHash isolates the DESIGN.md §5 precompile
// ablation at equal hash counts.
func BenchmarkPrecompileVsSoftHash(b *testing.B) {
	var block [16]uint32
	for i := range block {
		block[i] = uint32(i * 3)
	}
	const hashes = 4
	input := guest.SoftSHA256Input(hashes, block)
	b.Run("software", func(b *testing.B) {
		prog := guest.SoftSHA256ChainProgram()
		for i := 0; i < b.N; i++ {
			if _, err := zkvm.Prove(prog, input, zkvm.ProveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("precompile", func(b *testing.B) {
		prog := guest.PrecompileHashChainProgram()
		for i := 0; i < b.N; i++ {
			if _, err := zkvm.Prove(prog, input, zkvm.ProveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
