package main

import (
	"runtime"
	"syscall"
	"time"

	"zkflow/internal/ingest"
	"zkflow/internal/zkvm"
)

// def declares one metric of the benchmark: BENCHMARK.json lists the
// same names, units and directions, and bench_test.go checks the two
// agree.
type def struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndDefs are the metrics a user of the system sees. Every
// workload reports every one; README.md says what each means on each
// workload and which name of the issue it goes by there.
var endToEndDefs = []def{
	{"flows_per_s", "1/s", "higher", 0.25},
	{"latency_ms", "ms", "lower", 0.25},
	{"wire_bytes_per_op", "bytes", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// layerDefs are the per-layer metrics of the traced run, by module. A
// workload that does not exercise a layer reports 0 for it with no
// samples.
var layerDefs = []def{
	{"netflow.decode_ns_per_record", "ns", "lower", 0},
	{"netflow.decode_allocs_per_dgram", "count", "lower", 0},
	{"ingest.inject_us_per_dgram", "us", "lower", 0},
	{"ingest.seal_ms", "ms", "lower", 0},
	{"ingest.received", "count", "higher", 0},
	{"ingest.committed", "count", "higher", 0},
	{"ingest.dropped.queue_full", "count", "lower", 0},
	{"ingest.dropped.evicted", "count", "lower", 0},
	{"ingest.dropped.invalid", "count", "lower", 0},
	{"ingest.dropped.ledger", "count", "lower", 0},
	{"ingest.v9_template_misses", "count", "lower", 0},
	{"ingest.unaccounted", "count", "lower", 0},
	{"store.append_ns_per_record", "ns", "lower", 0},
	{"ledger.commit_ns_per_record", "ns", "lower", 0},
	{"ledger.seal_epoch_us", "us", "lower", 0},
	{"ledger.prove_inclusion_us", "us", "lower", 0},
	{"router.collect_ms", "ms", "lower", 0},
	{"guest.words_ms", "ms", "lower", 0},
	{"guest.reference_ms", "ms", "lower", 0},
	{"guest.cycles_per_record", "count", "lower", 0},
	{"guest.query_compile_ms", "ms", "lower", 0},
	{"zkvm.execute_ms", "ms", "lower", 0},
	{"zkvm.stage.mem_sort_ms", "ms", "lower", 0},
	{"zkvm.stage.merkle_commit_ms", "ms", "lower", 0},
	{"zkvm.stage.grand_product_ms", "ms", "lower", 0},
	{"zkvm.stage.boundary_commit_ms", "ms", "lower", 0},
	{"zkvm.stage.seal_ms", "ms", "lower", 0},
	{"zkvm.prove_ms", "ms", "lower", 0},
	{"zkvm.verify_ms", "ms", "lower", 0},
	{"zkvm.trace_rows", "count", "lower", 0},
	{"zkvm.segments", "count", "lower", 0},
	{"zkvm.receipt_bytes", "bytes", "lower", 0},
	{"zkvm.marshal_ms", "ms", "lower", 0},
	{"core.aggregate_ms", "ms", "lower", 0},
	{"core.aggregate_self_ms", "ms", "lower", 0},
	{"core.verify_query_ms", "ms", "lower", 0},
	{"api.publish_ms", "ms", "lower", 0},
	{"api.query_ms", "ms", "lower", 0},
	{"api.serve_bytes", "bytes", "lower", 0},
	{"api.requests", "count", "lower", 0},
	{"api.cache_hits", "count", "higher", 0},
	{"lightsync.sync_ms", "ms", "lower", 0},
	{"lightsync.bytes", "bytes", "lower", 0},
	{"lightsync.sampled_rounds", "count", "higher", 0},
	{"proc.cpu_s", "s", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.alloc_mb", "MB", "lower", 0},
	{"budget.unattributed_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// layers collects per-operation samples of per-layer metrics during a
// traced run.
type layers map[string]*samples

func (l layers) add(name string, v float64) {
	s := l[name]
	if s == nil {
		s = new(samples)
		l[name] = s
	}
	s.add(v)
}

func (l layers) addMs(name string, d time.Duration) { l.add(name, ms(d)) }

// metrics returns every per-layer metric in layerDefs order: the
// median of what was sampled, 0 with no samples for the rest.
func (l layers) metrics() []metric {
	out := make([]metric, 0, len(layerDefs))
	for _, d := range layerDefs {
		if s := l[d.name]; s != nil {
			out = append(out, timing(d.name, d.unit, *s))
		} else {
			out = append(out, metric{Name: d.name, Unit: d.unit})
		}
	}
	return out
}

// procUsage is a reading of the process's resource counters.
type procUsage struct {
	cpu     time.Duration // user + system
	peakRSS float64       // MB, high-water mark of the whole process
	gcPause time.Duration
	allocMB float64
	mallocs uint64
}

func readProc() procUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procUsage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		peakRSS: float64(ru.Maxrss) / 1024, // Linux reports KiB
		gcPause: time.Duration(ms.PauseTotalNs),
		allocMB: float64(ms.TotalAlloc) / (1 << 20),
	}
}

// addProc records what the measured window cost the process.
func (l layers) addProc(from, to procUsage) {
	l.add("proc.cpu_s", (to.cpu - from.cpu).Seconds())
	l.add("proc.peak_rss_mb", to.peakRSS)
	l.addMs("proc.gc_pause_ms", to.gcPause-from.gcPause)
	l.add("proc.alloc_mb", to.allocMB-from.allocMB)
}

// addIngest records a closed pipeline's accounting counters.
func (l layers) addIngest(s ingest.Stats) {
	l.add("ingest.received", float64(s.Received))
	l.add("ingest.committed", float64(s.Committed))
	l.add("ingest.dropped.queue_full", float64(s.DroppedQueue))
	l.add("ingest.dropped.evicted", float64(s.DroppedEvict))
	l.add("ingest.dropped.invalid", float64(s.DroppedBad))
	l.add("ingest.dropped.ledger", float64(s.DroppedLedgr))
	l.add("ingest.unaccounted", float64(s.Unaccounted()))
}

// addProof records what the prove wrapper saw of one traced proof.
// Stage times are summed over segments: at width >1 that exceeds the
// wall the stage occupies, which the budget table shows instead.
func (l layers) addProof(pf proof) {
	l.addMs("zkvm.prove_ms", pf.wall)
	l.addMs("zkvm.execute_ms", pf.stages[zkvm.StageExecute])
	for _, st := range []string{zkvm.StageMemSort, zkvm.StageMerkleCommit, zkvm.StageGrandProduct, zkvm.StageBoundaryCommit, zkvm.StageSeal} {
		if d, ok := pf.stages[st]; ok {
			l.addMs("zkvm.stage."+st+"_ms", d)
		}
	}
}

// finishTrace closes a traced run: the layer budget, the per-layer
// metrics and the span file.
func (l layers) finishTrace(res *result, tr *tracer, cfg *config, workload string) error {
	res.budget = tr.attribute()
	l.add("budget.unattributed_pct", res.budget.unattributedPct())
	res.Layers = l.metrics()
	path, err := tr.write(cfg.outDir, workload)
	if err != nil {
		return err
	}
	res.Notes = append(res.Notes, "spans written to "+path)
	return nil
}
