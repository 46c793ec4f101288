package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"slices"
	"time"

	"zkflow/internal/api"
	"zkflow/internal/clog"
	"zkflow/internal/core"
	"zkflow/internal/guest"
	"zkflow/internal/ingest"
	"zkflow/internal/ledger"
	"zkflow/internal/lightsync"
	"zkflow/internal/netflow"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
	"zkflow/internal/zkvm"
)

// epochParams sizes one of the two epoch workloads.
type epochParams struct {
	routers        int
	recsPerRouter  int
	flowsPerRouter int
	segmentCycles  int // 0 = single-segment receipts
	// pool is how many distinct epochs of datagrams set-up encodes. The
	// warm-up replays each once, so after it the CLog holds every flow
	// key the measured epochs (which cycle through the pool) can bring,
	// and every measured epoch does the same work.
	pool      int
	minEpochs int
}

const recsPerDgram = 30 // trafficgen.Replay's default chunking

// epochPayload is one epoch's input: the v9 datagrams in injection
// order and, decoded again by the benchmark, the per-router batches
// the reference aggregation runs over.
type epochPayload struct {
	dgrams  [][]byte
	batches [][]netflow.Record // index = router ID
	records int
	bytes   int
}

// makePayloads encodes pool epochs of NetFlow-v9 traffic from the
// seed. Datagrams are interleaved round-robin across routers, as
// concurrent exporters would arrive.
func makePayloads(seed int64, p epochParams) ([]epochPayload, error) {
	gens := trafficgen.PerRouter(trafficgen.Config{
		Seed: seed, NumFlows: p.flowsPerRouter, Routers: p.routers, LossRate: 0.02,
	})
	out := make([]epochPayload, p.pool)
	var seq uint32
	for e := range out {
		pl := &out[e]
		pl.batches = make([][]netflow.Record, p.routers)
		perRouter := make([][][]byte, p.routers)
		for r, g := range gens {
			recs := g.Batch(uint32(r), uint64(e), p.recsPerRouter)
			for off := 0; off < len(recs); off += recsPerDgram {
				chunk := recs[off:min(off+recsPerDgram, len(recs))]
				seq++
				d := netflow.EncodeV9(&netflow.ExportPacket{
					UnixSecs: chunk[0].StartUnix, Sequence: seq, SourceID: uint32(r), Records: chunk,
				})
				// The reference is what the wire carries, not what the
				// generator meant: decode with the stateless decoder.
				pkt, err := netflow.DecodeV9(d)
				if err != nil {
					return nil, fmt.Errorf("re-decoding generated datagram: %w", err)
				}
				pl.batches[r] = append(pl.batches[r], pkt.Records...)
				perRouter[r] = append(perRouter[r], d)
				pl.bytes += len(d)
			}
			pl.records += len(pl.batches[r])
		}
		for i := 0; ; i++ {
			any := false
			for r := range perRouter {
				if i < len(perRouter[r]) {
					pl.dgrams = append(pl.dgrams, perRouter[r][i])
					any = true
				}
			}
			if !any {
				break
			}
		}
	}
	return out, nil
}

// epochRig is the whole datagram -> verified-receipt path in one
// process: ingest pipeline, store, ledger, prover, API server behind
// an httptest listener, and a light client pinned one epoch back.
type epochRig struct {
	p        epochParams
	seed     int64
	payloads []epochPayload

	st     *store.Store
	lg     *ledger.Ledger
	pipe   *ingest.Pipeline
	prover *core.Prover
	srv    *api.Server
	ts     *httptest.Server
	client *api.Client
	light  *lightsync.State

	next    uint64       // next epoch number
	refCLog []clog.Entry // the benchmark's own aggregate, for checking journals

	hk *hooks // nil on an untraced rig
}

func newEpochRig(cfg *config, p epochParams) (*epochRig, error) {
	payloads, err := makePayloads(cfg.seed, p)
	if err != nil {
		return nil, err
	}
	r := &epochRig{p: p, seed: cfg.seed, payloads: payloads, st: store.Open(0), lg: ledger.New()}
	if cfg.trace {
		r.hk = &hooks{tr: newTracer()}
	}
	r.pipe, err = ingest.New(r.st, r.lg, ingest.Config{Shards: 4, QueueDepth: 4096})
	if err != nil {
		return nil, err
	}
	if err := r.pipe.Start(); err != nil {
		return nil, err
	}
	opts := core.Options{SegmentCycles: p.segmentCycles}
	if r.hk != nil {
		opts.Prove = r.hk.proveFunc()
	}
	r.prover = core.NewProver(r.st, r.lg, opts)
	r.srv = api.NewServer(r.prover, r.lg)
	h := r.srv.Handler()
	if r.hk != nil {
		h = r.hk.handler(h)
	}
	r.ts = httptest.NewServer(h)
	r.client = api.New(r.ts.URL, api.WithHTTPClient(r.ts.Client()), api.WithCache())

	// Warm-up: every pool epoch once, untraced. The first seals the
	// checkpoint the light client pins; the rest sync like measured
	// epochs do.
	var last *epochSample
	for i := 0; i < p.pool; i++ {
		if last, err = r.runEpoch(false); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up epoch %d: %w", i, err)
		}
	}
	if err := r.negativeChecks(last); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close tears the rig down and checks the ingest accounting
// invariant: after Close, received == committed + dropped.
func (r *epochRig) close() error {
	r.ts.Close()
	if err := r.pipe.Close(); err != nil {
		return err
	}
	return checkAccounting(r.pipe.Stats())
}

func checkAccounting(s ingest.Stats) error {
	if s.Received != s.Committed+s.Dropped() || s.Unaccounted() != 0 {
		return fmt.Errorf("ingest accounting broken after Close: received %d != committed %d + dropped %d (unaccounted %d)",
			s.Received, s.Committed, s.Dropped(), s.Unaccounted())
	}
	return nil
}

// epochSample is what one epoch through the path measured.
type epochSample struct {
	wall      time.Duration // first datagram handed in -> sync verified
	freshness time.Duration // last datagram handed in -> sync verified
	inject    time.Duration
	seal      time.Duration
	aggregate time.Duration
	publish   time.Duration
	sync      time.Duration
	reference time.Duration // benchmark-side guest.ReferenceAggregate
	bytes     uint64        // light client wire bytes
	sampled   int
	records   int
	dgrams    int
	res       *core.AggregationResult
	prevCLog  []clog.Entry
	epoch     uint64
}

// runEpoch carries one epoch from datagrams to a light-client-verified
// receipt and checks every output on the way.
func (r *epochRig) runEpoch(traced bool) (*epochSample, error) {
	e := r.next
	pl := &r.payloads[e%uint64(len(r.payloads))]
	s := &epochSample{epoch: e, records: pl.records, dgrams: len(pl.dgrams), prevCLog: r.refCLog}
	op := int(e)
	var hk *hooks // nil on an untraced epoch
	if traced {
		hk = r.hk
		defer hk.start(op)()
	}
	tr := hk.tracer()

	t0 := time.Now()
	root := tr.begin("epoch", -1, op)
	id := tr.begin("ingest.inject", root, op)
	tLast := t0
	for i, d := range pl.dgrams {
		if i == len(pl.dgrams)-1 {
			tLast = time.Now()
		}
		r.pipe.Inject(d)
	}
	tr.end(id)
	t1 := time.Now()

	id = tr.begin("ingest.seal", root, op)
	seal := r.pipe.Seal()
	tr.end(id)
	t2 := time.Now()
	if seal.Epoch != e || seal.Records != pl.records || seal.Dropped != 0 {
		return nil, fmt.Errorf("epoch %d: sealed %+v, want %d records and no drops", e, seal, pl.records)
	}

	id = tr.begin("core.aggregate", root, op)
	hk.under(id)
	res, err := r.prover.AggregateEpoch(e)
	tr.end(id)
	t3 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("epoch %d: %w", e, err)
	}

	id = tr.begin("api.publish", root, op)
	err = r.srv.AddAggregationResult(res)
	tr.end(id)
	t4 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("epoch %d: publish: %w", e, err)
	}

	var rep *lightsync.Report
	if r.light == nil {
		// First epoch: trust on first use, as zkflow-light does. There
		// is nothing to sync to yet.
		cp, err := r.lg.CheckpointByEpoch(e)
		if err != nil {
			return nil, err
		}
		if r.light, err = lightsync.Pin(r.ts.URL, cp); err != nil {
			return nil, err
		}
	} else {
		id = tr.begin("lightsync.sync", root, op)
		hk.under(id)
		rep, err = lightsync.Sync(context.Background(), r.client, r.light,
			lightsync.Options{Samples: 1, Seed: r.seed + int64(e) + 1, MinChecks: zkvm.DefaultChecks})
		tr.end(id)
	}
	t5 := time.Now()
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("epoch %d: light sync: %w", e, err)
	}
	if rep != nil {
		if rep.To.Epoch != e || !slices.Equal(rep.SampledRounds, []int{int(e)}) || rep.ProofsChecked == 0 {
			return nil, fmt.Errorf("epoch %d: sync ended at epoch %d having verified rounds %v and %d inclusion proofs",
				e, rep.To.Epoch, rep.SampledRounds, rep.ProofsChecked)
		}
		s.bytes, s.sampled = rep.Bytes, len(rep.SampledRounds)
	}

	// The journal must say what the benchmark's own aggregation says.
	tr0 := time.Now()
	ref := guest.ReferenceAggregate(r.refCLog, pl.batches...)
	s.reference = time.Since(tr0)
	if root := clog.MergeSubTreeRoots(clog.SubTreeRoots(ref, 1)); res.Journal.NewRoot != root ||
		int(res.Journal.NumRecords) != pl.records || int(res.Journal.NewCount) != len(ref) {
		return nil, fmt.Errorf("epoch %d: journal (records %d, entries %d, root %x) disagrees with the reference aggregate (records %d, entries %d, root %x)",
			e, res.Journal.NumRecords, res.Journal.NewCount, res.Journal.NewRoot.Bytes(), pl.records, len(ref), root.Bytes())
	}
	r.refCLog = ref
	r.next++

	s.wall, s.freshness = t5.Sub(t0), t5.Sub(tLast)
	s.inject, s.seal, s.aggregate, s.publish, s.sync = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t5.Sub(t4)
	s.res = res
	return s, nil
}

// negativeChecks makes sure speed cannot come from unsoundness: a
// receipt with one flipped seal byte must not verify, and an epoch
// with one tampered record must not prove.
func (r *epochRig) negativeChecks(last *epochSample) error {
	if err := flippedSealMustFail(guest.AggregationProgram(), last.res.Receipt); err != nil {
		return err
	}
	return tamperedMustNotProve(r.st, r.lg, last.res, last.prevCLog, r.p.segmentCycles)
}

// tamperedMustNotProve rebuilds the newest round's guest input, flips
// one counter bit in one record and requires the aggregation guest to
// abort on its commitment check.
func tamperedMustNotProve(st *store.Store, lg *ledger.Ledger, res *core.AggregationResult, prev []clog.Entry, segmentCycles int) error {
	in, err := aggInputOf(st, lg, res, prev)
	if err != nil {
		return err
	}
	recs := slices.Clone(in.Routers[0].Records) // the store owns the original
	recs[len(recs)/2].Bytes ^= 1
	in.Routers[0].Records = recs
	_, err = zkvm.ProveAny(guest.AggregationProgram(), in.Words(), zkvm.ProveOptions{SegmentCycles: segmentCycles})
	var abort *zkvm.GuestAbortError
	if !errors.As(err, &abort) || abort.ExitCode != guest.AbortCommitMismatch {
		return fmt.Errorf("negative check: a tampered record did not abort on the commitment check (err = %v)", err)
	}
	return nil
}

// flippedSealMustFail flips one byte in the middle of a receipt's
// seal and requires that the result no longer verifies.
func flippedSealMustFail(prog *zkvm.Program, receipt zkvm.AnyReceipt) error {
	bin, err := receipt.MarshalBinary()
	if err != nil {
		return err
	}
	bin[len(bin)-receipt.SealSize()/2] ^= 0x01
	bad, err := zkvm.UnmarshalAnyReceipt(bin)
	if err != nil {
		return nil // does not even decode: not accepted
	}
	if err := zkvm.VerifyAny(prog, bad, zkvm.VerifyOptions{}); err == nil {
		return errors.New("negative check: a receipt with a flipped seal byte verified")
	}
	return nil
}

// aggInputOf rebuilds the guest input of an aggregation round from
// public pieces: the round's own journal (chain hash, previous root,
// commitments), the epoch's stored batches and the CLog before it.
func aggInputOf(st *store.Store, lg *ledger.Ledger, res *core.AggregationResult, prev []clog.Entry) (*guest.AggInput, error) {
	in, err := router.CollectEpoch(st, lg, res.Epoch)
	if err != nil {
		return nil, err
	}
	j := res.Journal
	agg := &guest.AggInput{
		PrevJournalHash: j.PrevJournalHash, PrevRoot: j.PrevRoot, Epoch: j.Epoch, PrevEntries: prev,
	}
	for i, id := range in.Routers {
		agg.Routers = append(agg.Routers, guest.RouterBatch{ID: id, Commitment: j.Commitments[i], Records: in.Batches[i]})
	}
	return agg, nil
}
