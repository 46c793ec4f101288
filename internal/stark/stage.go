package stark

import "time"

// Prover substages, in execution order. Names are stable identifiers:
// they key metric series (obs.StageRecorder prefixes them into e.g.
// stark.stage.lde_seconds) and EXPERIMENTS.md E20's stage table.
const (
	// StageLDE is the per-column interpolate + coset-evaluate low
	// degree extension of the trace.
	StageLDE = "lde"
	// StageCommit is the row-wise Merkle commitment of the LDE.
	StageCommit = "commit"
	// StageComposition is the random-linear constraint combination
	// scan over the LDE domain.
	StageComposition = "composition"
	// StageFRI is the low-degree test (commit + query phases).
	StageFRI = "fri"
)

// Stages lists all prover substages in execution order.
var Stages = []string{StageLDE, StageCommit, StageComposition, StageFRI}

// StageObserver receives per-substage wall times from Prove. It is
// satisfied by obs.StageRecorder; implementations must be safe for
// concurrent use (pipelined epochs prove concurrently).
type StageObserver interface {
	ObserveStage(stage string, d time.Duration)
}

// stageTimer starts timing a substage and returns the function that
// stops the clock and reports it. A nil observer costs two branches.
func stageTimer(o StageObserver, stage string) func() {
	if o == nil {
		return func() {}
	}
	start := time.Now()
	return func() { o.ObserveStage(stage, time.Since(start)) }
}
