package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"time"

	"zkflow/internal/api"
	"zkflow/internal/clog"
	"zkflow/internal/core"
	"zkflow/internal/guest"
	"zkflow/internal/ledger"
	"zkflow/internal/query"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
	"zkflow/internal/zkvm"
)

// queryParams sizes the query-mix workload.
type queryParams struct {
	routers, recsPerRouter, flowsPerRouter, epochs int
	warmup, minQueries                             int
}

func querySizes(toy bool) queryParams {
	if toy {
		return queryParams{routers: 4, recsPerRouter: 16, flowsPerRouter: 8, epochs: 2, warmup: 2, minQueries: 6}
	}
	return queryParams{routers: 4, recsPerRouter: 500, flowsPerRouter: 512, epochs: 2, warmup: 20, minQueries: 60}
}

// queryShapes are the six fixed SQL shapes; %d/%s take a constant so
// a shape can be made to compile to a program nobody has seen yet.
var queryShapes = []func(c int, e clog.Entry) string{
	func(c int, e clog.Entry) string { // the paper's query, aimed at a flow that exists
		return fmt.Sprintf(`SELECT SUM(hop_count) FROM clogs WHERE src_ip = "%s" AND dst_ip = "%s";`, ip(e.Key.SrcIP), ip(e.Key.DstIP))
	},
	func(c int, _ clog.Entry) string {
		return fmt.Sprintf(`SELECT COUNT(*) FROM clogs WHERE dropped >= %d;`, c%7)
	},
	func(c int, _ clog.Entry) string {
		return fmt.Sprintf(`SELECT SUM(bytes) FROM clogs WHERE proto = 6 AND packets > %d;`, 10+c)
	},
	func(c int, _ clog.Entry) string {
		return fmt.Sprintf(`SELECT AVG(rtt_sum) FROM clogs WHERE count >= %d;`, 1+c%4)
	},
	func(c int, _ clog.Entry) string {
		return fmt.Sprintf(`SELECT MAX(rtt_max) FROM clogs WHERE NOT (proto = 17 OR dst_port < %d);`, 1024+c)
	},
	func(c int, _ clog.Entry) string {
		return fmt.Sprintf(`SELECT SUM(packets) FROM clogs WHERE src_port BETWEEN %d AND %d AND proto IN (6, 17);`, 1000+c, 50000+c)
	},
}

func ip(v uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", v>>24, v>>16&0xff, v>>8&0xff, v&0xff)
}

// sqlFor returns query i of the mix: shapes cycle, and every third
// query carries a constant no earlier query used, so it compiles to a
// new guest program; the others repeat a program the prover has seen.
// The i/6 term walks the fresh constants over all six shapes.
func (r *queryRig) sqlFor(i int) string {
	c := 0
	if (i+i/len(queryShapes))%3 == 2 {
		c = 100 + i
	}
	return queryShapes[i%len(queryShapes)](c, r.ref[c%len(r.ref)])
}

// queryRig is a prover with two aggregated epochs behind the HTTP API
// and a verifier that has checked both receipts.
type queryRig struct {
	p        queryParams
	prover   *core.Prover
	ts       *httptest.Server
	client   *api.Client
	verifier *core.Verifier
	ref      []clog.Entry // the benchmark's own CLog
	refWords [][]uint32
	next     int // next query number
	hk       *hooks
}

func newQueryRig(cfg *config, p queryParams) (*queryRig, error) {
	ctx := context.Background()
	r := &queryRig{p: p}
	st, lg := store.Open(0), ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: cfg.seed, NumFlows: p.flowsPerRouter, Routers: p.routers, LossRate: 0.02}, st, lg)
	var opts core.Options
	if cfg.trace {
		r.hk = &hooks{tr: newTracer()}
		opts.Prove = r.hk.proveFunc()
	}
	r.prover = core.NewProver(st, lg, opts)
	r.verifier = core.NewVerifier(lg)
	r.verifier.SetMinChecks(zkvm.DefaultChecks)
	var (
		last *core.AggregationResult
		prev []clog.Entry // the reference CLog before the last epoch
	)
	for e := uint64(0); e < uint64(p.epochs); e++ {
		batches, err := sim.RunEpoch(ctx, e, p.recsPerRouter)
		if err != nil {
			return nil, err
		}
		res, err := r.prover.AggregateEpoch(e)
		if err != nil {
			return nil, err
		}
		j, err := r.verifier.VerifyAggregation(res.Receipt)
		if err != nil {
			return nil, fmt.Errorf("epoch %d receipt: %w", e, err)
		}
		prev, r.ref = r.ref, guest.ReferenceAggregate(r.ref, batches...)
		if root := clog.MergeSubTreeRoots(clog.SubTreeRoots(r.ref, 1)); j.NewRoot != root || int(j.NumRecords) != p.routers*p.recsPerRouter {
			return nil, fmt.Errorf("epoch %d: journal disagrees with the reference aggregate", e)
		}
		last = res
	}
	r.refWords = guest.EntryWordsOf(r.ref)

	h := api.NewServer(r.prover, lg).Handler()
	if r.hk != nil {
		h = r.hk.handler(h)
	}
	r.ts = httptest.NewServer(h)
	r.client = api.New(r.ts.URL, api.WithHTTPClient(r.ts.Client()))

	// Negative checks: a tampered record must not prove, a query
	// receipt with a flipped seal byte must not verify.
	if err := tamperedMustNotProve(st, lg, last, prev, 0); err != nil {
		r.close()
		return nil, err
	}
	q, err := r.prover.Query(r.sqlFor(0))
	if err != nil {
		r.close()
		return nil, err
	}
	if err := flippedSealMustFail(guest.QueryProgram(query.MustParse(q.SQL)), q.Receipt); err != nil {
		r.close()
		return nil, err
	}
	for i := 0; i < p.warmup; i++ {
		if _, err := r.runQuery(false); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up query %d: %w", i, err)
		}
	}
	return r, nil
}

func (r *queryRig) close() error {
	r.ts.Close()
	return nil
}

// querySample is one query's client-observed timings.
type querySample struct {
	sql                 string
	total, call, verify time.Duration
	bytes               uint64
	receipt             *zkvm.Receipt
}

// runQuery sends the next query of the mix through the HTTP API,
// verifies the receipt and compares the proven answer with
// query.Eval over the benchmark's own CLog.
func (r *queryRig) runQuery(traced bool) (*querySample, error) {
	i := r.next
	r.next++
	sql := r.sqlFor(i)
	var hk *hooks // nil on an untraced query
	if traced {
		hk = r.hk
		defer hk.start(i)()
	}
	tr := hk.tracer()
	b0 := r.client.BytesRead()
	t0 := time.Now()
	root := tr.begin("query", -1, i)
	id := tr.begin("api.query", root, i)
	hk.under(id)
	resp, receipt, err := r.client.Query(context.Background(), sql)
	tr.end(id)
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("query %d %q: %w", i, sql, err)
	}
	id = tr.begin("core.verify_query", root, i)
	j, err := r.verifier.VerifyQuery(sql, receipt)
	tr.end(id)
	tr.end(root)
	t2 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("query %d %q: %w", i, sql, err)
	}
	matched, want := query.MustParse(sql).Eval(r.refWords)
	if j.Matched != matched || j.Result() != want || resp.Result != want || int(j.NumEntries) != len(r.ref) {
		return nil, fmt.Errorf("query %d %q: proven (matched %d, result %d, entries %d), reference (matched %d, result %d, entries %d)",
			i, sql, j.Matched, j.Result(), j.NumEntries, matched, want, len(r.ref))
	}
	return &querySample{sql: sql, total: t2.Sub(t0), call: t1.Sub(t0), verify: t2.Sub(t1), bytes: r.client.BytesRead() - b0, receipt: receipt}, nil
}

func runQueryMix(cfg *config) (*result, error) {
	p := querySizes(cfg.toy)
	rig, setup, err := buildRig(cfg, func() (*queryRig, error) { return newQueryRig(cfg, p) })
	if err != nil {
		return nil, err
	}
	defer rig.close()

	var (
		lay          = layers{}
		total, bytes samples
		tracedTotal  samples
		queries      int64
	)
	runtime.GC()
	proc0 := readProc()
	start := time.Now()
	minQueries := p.minQueries
	if cfg.trace {
		minQueries = max(minQueries, 2*len(queryShapes)) // one traced and one untraced block at least
	}
	for n := 0; n < minQueries || time.Since(start).Seconds() < cfg.seconds; n++ {
		// Traced and untraced queries alternate in blocks of six, so
		// both see every shape.
		traced := cfg.trace && (n/len(queryShapes))%2 == 0
		s, err := rig.runQuery(traced)
		if err != nil {
			return nil, err
		}
		queries++
		if traced {
			tracedTotal.addMs(s.total)
			if err := rig.probe(s, lay); err != nil {
				return nil, err
			}
			continue
		}
		total.addMs(s.total)
		bytes.add(float64(s.bytes))
	}
	proc1 := readProc()

	// One client, one query in flight: throughput is the reciprocal of
	// the median latency, in CLog entries answered over per second.
	flows := float64(len(rig.ref)) / (total.median() / 1e3)
	res := &result{
		Attempted: queries, // a query that errors or does not verify aborts the run
		EndToEnd: []metric{
			scalar("flows_per_s", "1/s", flows, len(total)),
			timing("latency_ms", "ms", total),
			timing("wire_bytes_per_op", "bytes", bytes),
			timing("setup_s", "s", setup),
		},
		Named: []metric{
			timing("query_ms", "ms", total),
			scalar("queries_per_s", "1/s", 1e3/total.median(), len(total)),
			timing("response_bytes_per_query", "bytes", bytes),
		},
		Notes: []string{fmt.Sprintf("CLog %d entries from %d epochs of %d records, %d measured queries, %d set-ups",
			len(rig.ref), p.epochs, p.routers*p.recsPerRouter, queries, len(setup))},
	}
	if cfg.trace {
		lay.add("trace.overhead_pct", 100*(tracedTotal.median()/total.median()-1))
		lay.add("api.requests", float64(rig.hk.requests.Load()))
		lay.add("api.cache_hits", float64(rig.client.CacheHits()))
		lay.addProc(proc0, proc1)
		if err := lay.finishTrace(res, rig.hk.tr, cfg, "query-mix"); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// probe records a traced query's spans as layer samples and times the
// query compiler directly.
func (r *queryRig) probe(s *querySample, lay layers) error {
	lay.addMs("api.query_ms", s.call)
	lay.addMs("core.verify_query_ms", s.verify)
	lay.add("api.serve_bytes", float64(r.hk.bytes.Swap(0)))
	pf := r.hk.lastProof()
	lay.addProof(pf)
	lay.add("zkvm.segments", 1)

	t0 := time.Now()
	q, err := query.Parse(s.sql)
	if err != nil {
		return err
	}
	prog := guest.QueryProgram(q)
	_ = prog.ID()
	lay.addMs("guest.query_compile_ms", time.Since(t0))

	ex, err := zkvm.Execute(prog, pf.input, zkvm.ExecOptions{})
	if err != nil {
		return err
	}
	lay.add("zkvm.trace_rows", float64(len(ex.Rows)))
	lay.add("guest.cycles_per_record", float64(len(ex.Rows))/float64(len(r.ref)))

	t0 = time.Now()
	if err := zkvm.Verify(prog, s.receipt, zkvm.VerifyOptions{MinChecks: zkvm.DefaultChecks}); err != nil {
		return err
	}
	lay.addMs("zkvm.verify_ms", time.Since(t0))
	t0 = time.Now()
	bin, err := s.receipt.MarshalBinary()
	if err != nil {
		return err
	}
	lay.addMs("zkvm.marshal_ms", time.Since(t0))
	lay.add("zkvm.receipt_bytes", float64(len(bin)))
	return nil
}
