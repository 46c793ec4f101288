// Observability wiring for the prover and the epoch path. All
// handles are resolved once here, so the instrumented paths only
// touch atomics; a prover built without Options.Metrics meters into a
// private registry.
//
// Metric names (served by GET /api/v1/metrics):
//
//	core.agg_rounds / core.agg_failures     counters, committed / failed rounds
//	core.agg_seconds                        histogram, witness start → commit
//	core.agg_discarded                      counter, seals discarded after an earlier seal in their window failed
//	core.query_total / core.query_failures  counters
//	core.query_seconds                      histogram
//	zkvm.soundness_bits                     histogram, each committed round's zkvm.Soundness headline bits
//	trace.witness_seconds / trace.seal_seconds  histograms, witness / seal of each round
//	prover.stage.<stage>_seconds            zkvm stage breakdown (see zkvm.Stages)
package core

import (
	"time"

	"zkflow/internal/obs"
	"zkflow/internal/zkvm"
)

// soundnessBuckets spans the headline bits a round's sampled checks
// give: about 0.0008 at the epoch-1k round's size and the default 48
// checks, more for smaller rounds or more checks.
var soundnessBuckets = []float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// metrics bundles the prover's pre-resolved metric handles.
type metrics struct {
	witnessSeconds *obs.Histogram
	sealSeconds    *obs.Histogram

	aggRounds     *obs.Counter
	aggFailures   *obs.Counter
	aggSeconds    *obs.Histogram
	discarded     *obs.Counter
	queries       *obs.Counter
	queryFailures *obs.Counter
	querySeconds  *obs.Histogram
	soundnessBits *obs.Histogram
}

// newMetrics pre-registers every prover metric so snapshots expose
// the full schema (at zero) before the first round; nil reg meters
// into a private registry.
func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &metrics{
		witnessSeconds: reg.Histogram("trace.witness_seconds", obs.DefaultLatencyBuckets),
		sealSeconds:    reg.Histogram("trace.seal_seconds", obs.DefaultLatencyBuckets),

		aggRounds:     reg.Counter("core.agg_rounds"),
		aggFailures:   reg.Counter("core.agg_failures"),
		aggSeconds:    reg.Histogram("core.agg_seconds", obs.DefaultLatencyBuckets),
		discarded:     reg.Counter("core.agg_discarded"),
		queries:       reg.Counter("core.query_total"),
		queryFailures: reg.Counter("core.query_failures"),
		querySeconds:  reg.Histogram("core.query_seconds", obs.DefaultLatencyBuckets),
		soundnessBits: reg.Histogram("zkvm.soundness_bits", soundnessBuckets),
	}
}

func (m *metrics) witnessDone(start time.Time) {
	m.witnessSeconds.Observe(time.Since(start).Seconds())
}

func (m *metrics) sealDone(start time.Time) {
	m.sealSeconds.Observe(time.Since(start).Seconds())
}

func (m *metrics) aggDone(seconds float64, receipt zkvm.AnyReceipt, err error) {
	if err != nil {
		m.aggFailures.Inc()
		return
	}
	m.aggRounds.Inc()
	m.aggSeconds.Observe(seconds)
	if r, ok := receipt.(*zkvm.Receipt); ok { // AnyReceipt's one implementation
		m.soundnessBits.Observe(zkvm.Soundness(r).Headline.Bits)
	}
}

func (m *metrics) queryDone(seconds float64, err error) {
	m.queries.Inc()
	if err != nil {
		m.queryFailures.Inc()
		return
	}
	m.querySeconds.Observe(seconds)
}
