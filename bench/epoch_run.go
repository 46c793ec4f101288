package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"zkflow/internal/guest"
	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/zkvm"
)

// epochSizes are the two epoch workloads' parameters.
func epochSizes(name string, toy bool) epochParams {
	switch {
	case name == "epoch-1k" && !toy:
		// 4 x 64 flows: the CLog saturates at 256 entries in warm-up.
		return epochParams{routers: 4, recsPerRouter: 250, flowsPerRouter: 64, pool: 5, minEpochs: 20}
	case name == "epoch-1k":
		return epochParams{routers: 4, recsPerRouter: 12, flowsPerRouter: 8, pool: 2, minEpochs: 2}
	case !toy:
		// 4 x 128 flows (CLog 512), sliced every 2^17 cycles into ~20
		// segments that seal at the prover's default width.
		return epochParams{routers: 4, recsPerRouter: 1000, flowsPerRouter: 128, segmentCycles: 1 << 17, pool: 2, minEpochs: 4}
	default:
		return epochParams{routers: 4, recsPerRouter: 24, flowsPerRouter: 8, segmentCycles: 1 << 12, pool: 2, minEpochs: 2}
	}
}

// buildRig runs set-up cfg.reps times and keeps the last rig; the
// durations are the samples of setup_s. The first is timed from
// process start (or from when this workload's turn in the suite
// began).
func buildRig[R interface{ close() error }](cfg *config, build func() (R, error)) (rig R, setup samples, err error) {
	for i := 0; i < max(cfg.reps, 1); i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = cfg.started
		}
		if i > 0 {
			if err := rig.close(); err != nil {
				return rig, nil, err
			}
		}
		if rig, err = build(); err != nil {
			return rig, nil, fmt.Errorf("set-up: %w", err)
		}
		setup.add(time.Since(t0).Seconds())
	}
	return rig, setup, nil
}

func runEpochWorkload(cfg *config, name string) (*result, error) {
	p := epochSizes(name, cfg.toy)
	rig, setup, err := buildRig(cfg, func() (*epochRig, error) { return newEpochRig(cfg, p) })
	if err != nil {
		return nil, err
	}
	clogBefore := len(rig.refCLog)

	var (
		lay                        = layers{}
		wall, fresh, bytes, syncMs samples // untraced epochs (all epochs of an untraced run)
		tracedFresh                samples
		records                    int
		epochs                     int64
	)
	runtime.GC()
	proc0 := readProc()
	start := time.Now()
	minEpochs := p.minEpochs
	if cfg.trace {
		minEpochs = max(minEpochs, 2*p.pool) // one traced and one untraced block at least
	}
	for n := 0; n < minEpochs || time.Since(start).Seconds() < cfg.seconds; n++ {
		// Traced and untraced epochs alternate in blocks of one pass
		// through the payload pool, so both see every payload.
		traced := cfg.trace && (n/p.pool)%2 == 0
		s, err := rig.runEpoch(traced)
		if err != nil {
			rig.close()
			return nil, err
		}
		epochs++
		records = s.records
		if traced {
			tracedFresh.addMs(s.freshness)
			if err := rig.probe(s, lay); err != nil {
				rig.close()
				return nil, err
			}
			continue
		}
		wall.addMs(s.wall)
		fresh.addMs(s.freshness)
		bytes.add(float64(s.bytes))
		syncMs.addMs(s.sync)
	}
	proc1 := readProc()
	if err := rig.close(); err != nil {
		return nil, err
	}
	if got := len(rig.refCLog); got != clogBefore {
		return nil, fmt.Errorf("CLog grew from %d to %d entries during the measured epochs: warm-up did not saturate it", clogBefore, got)
	}

	flows := float64(records) / (wall.median() / 1e3)
	res := &result{
		Attempted: epochs, // an epoch that ends without a verified receipt aborts the run
		EndToEnd: []metric{
			scalar("flows_per_s", "1/s", flows, len(wall)),
			timing("latency_ms", "ms", fresh),
			timing("wire_bytes_per_op", "bytes", bytes),
			timing("setup_s", "s", setup),
		},
		Named: []metric{
			scalar("proved_flows_per_s", "1/s", flows, len(wall)),
			timing("freshness_ms", "ms", fresh),
			timing("verified_bytes_per_epoch", "bytes", bytes),
			timing("client_verify_ms", "ms", syncMs),
			timing("epoch_wall_ms", "ms", wall),
		},
		Notes: []string{fmt.Sprintf("%d records per epoch, CLog %d entries, %d measured epochs, %d set-ups", records, clogBefore, epochs, len(setup))},
	}
	if cfg.trace {
		lay.add("trace.overhead_pct", 100*(tracedFresh.median()/fresh.median()-1))
		lay.addIngest(rig.pipe.Stats())
		lay.add("api.requests", float64(rig.hk.requests.Load()))
		lay.add("api.cache_hits", float64(rig.client.CacheHits()))
		lay.addProc(proc0, proc1)
		if err := lay.finishTrace(res, rig.hk.tr, cfg, name); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// probe measures, right after a traced epoch and on that epoch's own
// inputs, the layers that have no hook: it calls their public
// functions directly and times them. The epoch's spans give the rest.
func (r *epochRig) probe(s *epochSample, lay layers) error {
	res := s.res
	pl := &r.payloads[s.epoch%uint64(len(r.payloads))]
	prog := guest.AggregationProgram()

	// From the epoch's own spans.
	lay.add("ingest.inject_us_per_dgram", float64(s.inject.Microseconds())/float64(s.dgrams))
	lay.addMs("ingest.seal_ms", s.seal)
	lay.addMs("core.aggregate_ms", s.aggregate)
	lay.addMs("api.publish_ms", s.publish)
	lay.addMs("lightsync.sync_ms", s.sync)
	lay.add("lightsync.bytes", float64(s.bytes))
	lay.add("lightsync.sampled_rounds", float64(s.sampled))
	lay.addMs("guest.reference_ms", s.reference)
	pf := r.hk.lastProof()
	lay.addProof(pf)
	lay.addMs("core.aggregate_self_ms", s.aggregate-pf.wall)
	lay.add("api.serve_bytes", float64(r.hk.bytes.Swap(0)))

	// router, guest: rebuild the guest input the way core does.
	t0 := time.Now()
	if _, err := router.CollectEpoch(r.st, r.lg, s.epoch); err != nil {
		return err
	}
	lay.addMs("router.collect_ms", time.Since(t0))
	in, err := aggInputOf(r.st, r.lg, res, s.prevCLog)
	if err != nil {
		return err
	}
	t0 = time.Now()
	words := in.Words()
	lay.addMs("guest.words_ms", time.Since(t0))
	if !slices.Equal(words, pf.input) {
		return fmt.Errorf("epoch %d: the probe's rebuilt guest input differs from the one the prover proved", s.epoch)
	}

	// zkvm: row counts from a plain execution, verification and
	// encoding of the receipt the epoch produced.
	ex, err := zkvm.Execute(prog, words, zkvm.ExecOptions{})
	if err != nil {
		return err
	}
	lay.add("zkvm.trace_rows", float64(len(ex.Rows)))
	lay.add("guest.cycles_per_record", float64(len(ex.Rows))/float64(s.records))
	segments := 1
	if c, ok := res.Receipt.(*zkvm.CompositeReceipt); ok {
		segments = c.NumSegments()
	}
	lay.add("zkvm.segments", float64(segments))
	t0 = time.Now()
	if err := zkvm.VerifyAny(prog, res.Receipt, zkvm.VerifyOptions{MinChecks: zkvm.DefaultChecks}); err != nil {
		return err
	}
	lay.addMs("zkvm.verify_ms", time.Since(t0))
	t0 = time.Now()
	bin, err := res.Receipt.MarshalBinary()
	if err != nil {
		return err
	}
	lay.addMs("zkvm.marshal_ms", time.Since(t0))
	lay.add("zkvm.receipt_bytes", float64(len(bin)))

	// netflow, store, ledger: the ingest side's inner calls.
	probeDecode(pl.dgrams, s.records, lay)
	return probeStoreLedger(r.lg, s.epoch, s.epoch, pl.batches, s.records, lay)
}

// probeDecode times the decoders ingest runs on each datagram and
// counts their allocations. Nothing else in the process allocates
// while it runs, so the malloc delta is the decoders'.
func probeDecode(dgrams [][]byte, records int, lay layers) {
	dec := netflow.NewV9Decoder(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for _, d := range dgrams {
		// Errors cannot occur: set-up already decoded these datagrams.
		if isSFlow(d) {
			sd, _ := netflow.DecodeSFlow(d)
			_ = netflow.SFlowToRecords(sd, sd.AgentIP, 1, 1)
		} else {
			_, _ = dec.Decode(d)
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&after)
	lay.add("netflow.decode_ns_per_record", float64(el.Nanoseconds())/float64(records))
	lay.add("netflow.decode_allocs_per_dgram", float64(after.Mallocs-before.Mallocs)/float64(len(dgrams)))
	lay.add("ingest.v9_template_misses", float64(dec.TemplateMisses()))
}

// probeStoreLedger times store.Append and the commitment hash over
// one epoch's batches and a checkpoint seal, all on scratch instances,
// then an inclusion proof for router 0's entry of liveEpoch against
// the live ledger's newest checkpoint.
func probeStoreLedger(live *ledger.Ledger, liveEpoch, epoch uint64, batches [][]netflow.Record, records int, lay layers) error {
	st, lg := store.Open(0), ledger.New()
	t0 := time.Now()
	for id, b := range batches {
		if _, err := st.Append(epoch, uint32(id), b); err != nil {
			return err
		}
	}
	lay.add("store.append_ns_per_record", float64(time.Since(t0).Nanoseconds())/float64(records))
	var commit time.Duration
	for id, b := range batches {
		t0 = time.Now()
		h := ledger.CommitRecords(b)
		commit += time.Since(t0)
		if _, err := lg.Publish(uint32(id), epoch, h); err != nil {
			return err
		}
	}
	lay.add("ledger.commit_ns_per_record", float64(commit.Nanoseconds())/float64(records))
	t0 = time.Now()
	if _, err := lg.SealEpoch(epoch); err != nil {
		return err
	}
	lay.add("ledger.seal_epoch_us", float64(time.Since(t0).Nanoseconds())/1e3)

	cp, err := live.LatestCheckpoint()
	if err != nil {
		return err
	}
	com, err := live.Lookup(0, liveEpoch)
	if err != nil {
		return err
	}
	t0 = time.Now()
	proof, err := live.ProveInclusion(com.Index, cp)
	if err != nil {
		return err
	}
	lay.add("ledger.prove_inclusion_us", float64(time.Since(t0).Nanoseconds())/1e3)
	return ledger.VerifyInclusion(cp, com, proof)
}
