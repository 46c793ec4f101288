package zkvm

import "time"

// Prover stage names, in pipeline order. These are the labels a
// StageObserver receives and the histogram suffixes internal/obs
// publishes (prover.stage.<name>_seconds); `go run ./bench -trace 1`
// prints the breakdown EXPERIMENTS.md records.
const (
	// StageExecute is guest execution + trace recording.
	StageExecute = "execute"
	// StageMemSort is the address-ordered re-sort of the memory log. It
	// runs inside StageMerkleCommit's window, as the lead task of the
	// phase-1 crew: the other workers commit exec and program-order
	// blocks meanwhile, and the address-order blocks wait for it.
	StageMemSort = "mem_sort"
	// StageMerkleCommit encodes and commits the three phase-1 tables
	// (trace rows and both memory-log orderings) on one crew that also
	// runs the mem_sort stage: rows are encoded block by block into
	// salted leaf hashes and the trees are built over them.
	StageMerkleCommit = "merkle_commit"
	// StageGrandProduct fingerprints each memory-log entry once, scans
	// the two running-product columns under the (alpha, gamma)
	// challenges, and encodes and commits them.
	StageGrandProduct = "grand_product"
	// StageBoundaryCommit commits the boundary memory images of a
	// segmented (continuation) proof — one salted tree per segment
	// boundary, shared by the two adjacent segment receipts. Reported
	// once per proof with a boundary, none for one segment; the
	// per-segment stages (mem_sort, merkle_commit, grand_product, seal)
	// are reported once per segment, so an N-segment proof emits N
	// observations per stage.
	StageBoundaryCommit = "boundary_commit"
	// StageSeal assembles the receipt: boundary openings plus the
	// Fiat–Shamir-sampled spot checks, and one multiproof per tree.
	StageSeal = "seal"
)

// Stages lists every prover stage in pipeline order.
var Stages = []string{
	StageExecute, StageBoundaryCommit, StageMemSort,
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
