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
//	trace.witness_seconds / trace.seal_seconds  histograms, witness / seal of each round
//	prover.stage.<stage>_seconds            zkvm stage breakdown (see zkvm.Stages)
package core

import (
	"time"

	"zkflow/internal/obs"
)

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
	}
}

func (m *metrics) witnessDone(start time.Time) {
	m.witnessSeconds.Observe(time.Since(start).Seconds())
}

func (m *metrics) sealDone(start time.Time) {
	m.sealSeconds.Observe(time.Since(start).Seconds())
}

func (m *metrics) aggDone(seconds float64, err error) {
	if err != nil {
		m.aggFailures.Inc()
		return
	}
	m.aggRounds.Inc()
	m.aggSeconds.Observe(seconds)
}

func (m *metrics) queryDone(seconds float64, err error) {
	m.queries.Inc()
	if err != nil {
		m.queryFailures.Inc()
		return
	}
	m.querySeconds.Observe(seconds)
}
