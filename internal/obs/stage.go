package obs

import "time"

// StageRecorder adapts a Registry to the zkvm.StageObserver interface:
// each prover stage lands in a histogram named
// <prefix><stage>_seconds. One recorder may be shared by concurrent
// proofs.
type StageRecorder struct {
	reg    *Registry
	prefix string
}

// NewStageRecorder records stage timings under prefix (e.g.
// "prover.stage.").
func NewStageRecorder(reg *Registry, prefix string) *StageRecorder {
	return &StageRecorder{reg: reg, prefix: prefix}
}

// ObserveStage implements the prover's stage-timing hook.
func (r *StageRecorder) ObserveStage(stage string, d time.Duration) {
	r.reg.Histogram(r.prefix+stage+"_seconds", DefaultLatencyBuckets).Observe(d.Seconds())
}
