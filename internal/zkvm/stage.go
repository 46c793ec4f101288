package zkvm

import "time"

// Prover stage names, in pipeline order. These are the labels a
// StageObserver receives and the histogram suffixes internal/obs
// publishes (prover.stage.<name>_seconds); `go run ./bench -trace 1`
// prints the breakdown EXPERIMENTS.md records.
const (
	// StageExecute is guest execution + trace recording.
	StageExecute = "execute"
	// StageMemSort named the address-ordered re-sort of the memory log,
	// which seal format v6 no longer has: no prover reports it. The
	// name stays for the benchmark's layer table, where it reads empty.
	StageMemSort = "mem_sort"
	// StageMerkleCommit encodes and commits the phase-1 tables — trace
	// rows, the memory log and a final segment's final table — block by
	// block into salted leaf hashes, and builds the trees over them.
	StageMerkleCommit = "merkle_commit"
	// StageGrandProduct scans the three product columns of the memory
	// argument under the (alpha, gamma) challenges — the log's ratio
	// column, the final table's and the entry image's — and encodes and
	// commits them.
	StageGrandProduct = "grand_product"
	// StageBoundaryCommit commits the boundary memory images of a
	// segmented (continuation) proof — one salted tree per segment
	// boundary, shared by the two adjacent segment receipts. Reported
	// once per proof with a boundary, none for one segment; the
	// per-segment stages (merkle_commit, grand_product, seal)
	// are reported once per segment, so an N-segment proof emits N
	// observations per stage.
	StageBoundaryCommit = "boundary_commit"
	// StageSeal assembles the receipt: boundary openings plus the
	// Fiat–Shamir-sampled spot checks, and one multiproof per tree.
	StageSeal = "seal"
)

// Stages lists every prover stage in pipeline order.
var Stages = []string{
	StageExecute, StageBoundaryCommit,
	StageMerkleCommit, StageGrandProduct, StageSeal,
}

// StageObserver receives per-stage prover timings. Implementations
// must be safe for concurrent use: parallel proofs (worker pools,
// pipelined epochs) report stages concurrently. obs.StageRecorder is
// the standard registry-backed implementation.
type StageObserver interface {
	ObserveStage(stage string, d time.Duration)
}

// stageTimer times one stage against an optional observer; a nil
// observer costs one branch.
func stageTimer(o StageObserver, stage string) func() {
	if o == nil {
		return func() {}
	}
	start := time.Now()
	return func() { o.ObserveStage(stage, time.Since(start)) }
}
