// Package ingest is the production ingress tier: the path from a UDP
// datagram on the wire to a committed, ledger-published RLog segment.
// It replaces the in-process synthetic feed (internal/router +
// internal/trafficgen writing straight into the store) with the
// collector architecture the paper assumes commodity routers talk to:
//
//	packet → decode (NetFlow v9 / sFlow v5) → shard by router →
//	  shard queue → per-router buffers → seal request (same queue) →
//	  store.Append + ledger.Publish(CommitRecords)
//
// Records are sharded by RouterID so each (router, epoch) segment is
// owned by exactly one worker — commitments publish once, with no
// cross-shard locking on the hot path (hand-off is one buffered
// channel send). A seal travels the same queue as the data, behind
// every batch sent before it, so the queue alone orders records into
// epochs. The pipeline keeps no clock: an epoch advances only when the
// caller calls Seal, whose result is the one report of what the epoch
// committed. Backpressure is explicit: a full shard queue drops the
// batch and counts it, it never blocks the socket readers. Every record
// is accounted for — received equals committed plus dropped-by-cause
// once the pipeline is drained (Close, started or not), and a datagram
// that loses the race with Close is a counted drop. The accounting is
// surfaced through internal/obs
// (see metric names below, served at /api/v1/metrics when zkflowd
// shares its registry).
package ingest

import (
	"encoding/binary"
	"fmt"
	"log"
	"net"
	"sort"
	"sync"
	"time"

	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/obs"
	"zkflow/internal/store"
)

// Config parameterises a Pipeline.
type Config struct {
	// Addr is the UDP listen address (e.g. "127.0.0.1:2055"). Empty
	// runs without a socket: datagrams arrive only via Inject (tests,
	// benchmarks, and in-process replay).
	Addr string
	// Shards is the ingest worker count; routers map to shards by
	// RouterID modulo Shards (default 4).
	Shards int
	// QueueDepth is the per-shard queue capacity in decoded batches; a
	// full queue drops (default 1024).
	QueueDepth int
	// Metrics receives the pipeline's counters/gauges/histograms (nil
	// = a private registry).
	Metrics *obs.Registry
}

// Seal summarises one sealed epoch.
type Seal struct {
	Epoch   uint64
	Routers int // routers committed this epoch
	Records int // records committed this epoch
	Dropped int // records dropped at commit (evicted / ledger refusal)
}

// readers is the number of goroutines reading the one UDP socket.
const readers = 2

// batch is what a shard worker receives: one packet's records, all
// from one router, or — when seal is set — a seal request.
type batch struct {
	router uint32
	recs   []netflow.Record
	seal   *sealReq
}

// sealReq asks every shard to flush its buffers as one epoch and answer
// on reply. A worker returns after answering the final request.
type sealReq struct {
	epoch uint64
	final bool
	reply chan shardSeal
}

// shardSeal is one shard's flush result for an epoch.
type shardSeal struct {
	routers, records, dropped int
}

// shard is one ingest worker: its queue and the current epoch's
// per-router buffers.
type shard struct {
	ch    chan batch
	buf   map[uint32][]netflow.Record
	depth *obs.Gauge
}

// Pipeline is the ingest front end. Construct with New, then Start;
// Close drains and flushes. Safe for concurrent Inject/Seal callers.
type Pipeline struct {
	cfg Config
	st  *store.Store
	lg  *ledger.Ledger

	conn   net.PacketConn // nil without Addr
	shards []*shard
	v9dec  *netflow.V9Decoder

	mu      sync.Mutex // serialises Start, Seal and Close; guards epoch/started
	epoch   uint64
	started bool
	// closed is set just before the final seal request is queued: from
	// then Seal is a no-op and dispatch drops. Close sets it holding
	// both mu and sendMu; dispatch holds sendMu's read lock from its
	// check to its send, so no batch can queue behind the final seal.
	sendMu sync.RWMutex
	closed bool

	readersWG sync.WaitGroup
	workersWG sync.WaitGroup

	// Metric handles (resolved once; hot paths touch only atomics).
	datagrams    *obs.Counter // ingest.datagrams
	datagramsBad *obs.Counter // ingest.datagrams_bad
	received     *obs.Counter // ingest.records_received
	committed    *obs.Counter // ingest.records_committed
	dropQueue    *obs.Counter // ingest.records_dropped.queue_full
	dropEvicted  *obs.Counter // ingest.records_dropped.evicted
	dropInvalid  *obs.Counter // ingest.records_dropped.invalid
	dropLedger   *obs.Counter // ingest.records_dropped.ledger
	epochsSealed *obs.Counter // ingest.epochs_sealed
	v9Misses     *obs.Gauge   // ingest.v9_template_misses
	commitSec    *obs.Histogram
}

// New builds a pipeline over a store and ledger, binding the UDP
// socket when cfg.Addr is set (so bind errors surface before any
// goroutine starts). Call Start to begin ingesting.
func New(st *store.Store, lg *ledger.Ledger, cfg Config) (*Pipeline, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	p := &Pipeline{
		cfg:   cfg,
		st:    st,
		lg:    lg,
		v9dec: netflow.NewV9Decoder(0),

		datagrams:    reg.Counter("ingest.datagrams"),
		datagramsBad: reg.Counter("ingest.datagrams_bad"),
		received:     reg.Counter("ingest.records_received"),
		committed:    reg.Counter("ingest.records_committed"),
		dropQueue:    reg.Counter("ingest.records_dropped.queue_full"),
		dropEvicted:  reg.Counter("ingest.records_dropped.evicted"),
		dropInvalid:  reg.Counter("ingest.records_dropped.invalid"),
		dropLedger:   reg.Counter("ingest.records_dropped.ledger"),
		epochsSealed: reg.Counter("ingest.epochs_sealed"),
		v9Misses:     reg.Gauge("ingest.v9_template_misses"),
		commitSec:    reg.Histogram("ingest.commit_seconds", obs.DefaultLatencyBuckets),
	}
	for i := 0; i < cfg.Shards; i++ {
		p.shards = append(p.shards, &shard{
			ch:    make(chan batch, cfg.QueueDepth),
			buf:   make(map[uint32][]netflow.Record),
			depth: reg.Gauge(fmt.Sprintf("ingest.queue_depth.shard%d", i)),
		})
	}
	if cfg.Addr != "" {
		conn, err := net.ListenPacket("udp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("ingest: listen %s: %w", cfg.Addr, err)
		}
		p.conn = conn
	}
	return p, nil
}

// Addr returns the bound UDP address (nil without a socket) — useful
// with ":0" listeners.
func (p *Pipeline) Addr() net.Addr {
	if p.conn == nil {
		return nil
	}
	return p.conn.LocalAddr()
}

// Start launches the shard workers and the UDP readers.
func (p *Pipeline) Start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("ingest: closed")
	}
	if p.started {
		return fmt.Errorf("ingest: already started")
	}
	p.startWorkers()
	if p.conn != nil {
		for i := 0; i < readers; i++ {
			p.readersWG.Add(1)
			go p.reader()
		}
	}
	return nil
}

// startWorkers launches one worker per shard. The caller holds mu.
func (p *Pipeline) startWorkers() {
	p.started = true
	for _, s := range p.shards {
		p.workersWG.Add(1)
		go p.worker(s)
	}
}

// reader pulls datagrams off the socket until it closes.
func (p *Pipeline) reader() {
	defer p.readersWG.Done()
	buf := make([]byte, 1<<16)
	for {
		n, _, err := p.conn.ReadFrom(buf)
		if n > 0 {
			p.Inject(buf[:n])
		}
		if err != nil {
			return // closed (or fatally broken) socket
		}
	}
}

// Inject runs one datagram through the full ingest path — exactly
// what a UDP reader does with a received packet. The buffer is not
// retained. Safe for concurrent use, including alongside live readers.
func (p *Pipeline) Inject(dgram []byte) {
	p.datagrams.Inc()
	switch {
	case len(dgram) >= 4 && binary.BigEndian.Uint32(dgram) == netflow.SFlowVersion:
		d, err := netflow.DecodeSFlow(dgram)
		if err != nil {
			p.datagramsBad.Inc()
			return
		}
		now := uint32(time.Now().Unix())
		p.dispatch(d.AgentIP, netflow.SFlowToRecords(d, d.AgentIP, now, now))
	case len(dgram) >= 2 && binary.BigEndian.Uint16(dgram) == netflow.V9Version:
		pkt, err := p.v9dec.Decode(dgram)
		if err != nil {
			p.datagramsBad.Inc()
			return
		}
		p.v9Misses.Set(int64(p.v9dec.TemplateMisses()))
		p.dispatch(pkt.SourceID, pkt.Records)
	default:
		p.datagramsBad.Inc()
	}
}

// dispatch validates one packet's records and hands them to the
// owning shard. A full queue, or a closed pipeline, drops the whole
// batch — never blocks.
func (p *Pipeline) dispatch(router uint32, recs []netflow.Record) {
	if len(recs) == 0 {
		return
	}
	p.received.Add(uint64(len(recs)))
	valid := recs[:0]
	for i := range recs {
		if recs[i].Validate() != nil {
			p.dropInvalid.Inc()
			continue
		}
		valid = append(valid, recs[i])
	}
	if len(valid) == 0 {
		return
	}
	s := p.shards[router%uint32(len(p.shards))]
	p.sendMu.RLock()
	if !p.closed {
		select {
		case s.ch <- batch{router: router, recs: valid}:
			p.sendMu.RUnlock()
			s.depth.Add(1)
			return
		default:
		}
	}
	p.sendMu.RUnlock()
	p.dropQueue.Add(uint64(len(valid)))
}

// worker owns one shard: it folds each data batch into the current
// epoch's per-router buffers, and flushes them on a seal request —
// which its queue delivers after every batch sent before the request.
func (p *Pipeline) worker(s *shard) {
	defer p.workersWG.Done()
	for b := range s.ch {
		if b.seal == nil {
			s.depth.Add(-1)
			s.buf[b.router] = append(s.buf[b.router], b.recs...)
			continue
		}
		b.seal.reply <- p.flush(s, b.seal.epoch)
		if b.seal.final {
			return
		}
	}
}

// flush commits one shard's buffered records as (epoch, router)
// segments: store append first (an out-of-retention epoch refuses the
// whole segment — the silent-loss fix in store.Append — and counts as
// evicted drops), then the ledger commitment. A ledger refusal is
// counted as dropped too: records in the store without a published
// commitment can never be aggregated.
func (p *Pipeline) flush(s *shard, epoch uint64) shardSeal {
	var out shardSeal
	if len(s.buf) == 0 {
		return out
	}
	t0 := time.Now()
	routers := make([]uint32, 0, len(s.buf))
	for r := range s.buf {
		routers = append(routers, r)
	}
	sort.Slice(routers, func(i, j int) bool { return routers[i] < routers[j] })
	for _, r := range routers {
		recs := s.buf[r]
		if dropped, err := p.st.Append(epoch, r, recs); err != nil {
			p.dropEvicted.Add(uint64(dropped))
			out.dropped += dropped
			continue
		}
		if _, err := p.lg.Publish(r, epoch, ledger.CommitRecords(recs)); err != nil {
			p.dropLedger.Add(uint64(len(recs)))
			out.dropped += len(recs)
			continue
		}
		p.committed.Add(uint64(len(recs)))
		out.records += len(recs)
		out.routers++
	}
	clear(s.buf)
	p.commitSec.Observe(time.Since(t0).Seconds())
	return out
}

// Seal commits the current epoch across all shards and advances to
// the next; it is the only way an epoch advances, and the returned Seal
// is the one report of what the epoch committed and dropped. Before
// Start and after Close it seals nothing and returns the current epoch.
func (p *Pipeline) Seal() Seal {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started || p.closed {
		return Seal{Epoch: p.epoch}
	}
	return p.sealLocked(false)
}

// sealLocked queues one seal request on every shard, then collects the
// answers: shards flush concurrently, and the seal is a barrier at
// epoch granularity only. The request waits for room in a full queue
// rather than drop, and the worker drains the queue ahead of it.
func (p *Pipeline) sealLocked(final bool) Seal {
	info := Seal{Epoch: p.epoch}
	req := &sealReq{epoch: info.Epoch, final: final, reply: make(chan shardSeal, len(p.shards))}
	for _, s := range p.shards {
		s.ch <- batch{seal: req}
	}
	for range p.shards {
		r := <-req.reply
		info.Routers += r.routers
		info.Records += r.records
		info.Dropped += r.dropped
	}
	p.epoch++
	p.epochsSealed.Inc()
	if info.Records > 0 {
		// Commitments for this epoch are all published: seal the
		// ledger checkpoint light clients sync to. Empty epochs leave
		// no checkpoint — there is nothing new to prove.
		if _, err := p.lg.SealEpoch(info.Epoch); err != nil {
			log.Printf("ingest: sealing checkpoint for epoch %d: %v", info.Epoch, err)
		}
	}
	return info
}

// Close stops the socket readers, so that everything they took off
// the socket commits in one final seal; then it marks the pipeline
// closed, queues the final seal request behind every batch, and waits
// for the workers to return. A pipeline that never started gets its
// workers here, so the final seal commits what was injected. After
// Close every received record is accounted: received == committed +
// dropped. A Seal that starts after Close seals nothing, and an Inject
// that does not queue its batch ahead of the final seal counts its
// records as records_dropped.queue_full.
func (p *Pipeline) Close() error {
	if p.conn != nil {
		p.conn.Close()
		p.readersWG.Wait()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	if !p.started {
		p.startWorkers()
	}
	p.sendMu.Lock()
	p.closed = true
	p.sendMu.Unlock()
	p.sealLocked(true)
	p.workersWG.Wait()
	return nil
}

// Stats is a point-in-time copy of the pipeline's accounting.
type Stats struct {
	Datagrams    uint64
	BadDatagrams uint64
	Received     uint64
	Committed    uint64
	DroppedQueue uint64
	DroppedEvict uint64
	DroppedBad   uint64
	DroppedLedgr uint64
}

// Dropped sums every drop cause.
func (s Stats) Dropped() uint64 {
	return s.DroppedQueue + s.DroppedEvict + s.DroppedBad + s.DroppedLedgr
}

// Unaccounted is received minus committed minus dropped: records
// still queued or buffered. It must be zero after Close — the
// zero-silent-loss invariant the tests pin.
func (s Stats) Unaccounted() int64 {
	return int64(s.Received) - int64(s.Committed) - int64(s.Dropped())
}

// Stats snapshots the counters.
func (p *Pipeline) Stats() Stats {
	return Stats{
		Datagrams:    p.datagrams.Value(),
		BadDatagrams: p.datagramsBad.Value(),
		Received:     p.received.Value(),
		Committed:    p.committed.Value(),
		DroppedQueue: p.dropQueue.Value(),
		DroppedEvict: p.dropEvicted.Value(),
		DroppedBad:   p.dropInvalid.Value(),
		DroppedLedgr: p.dropLedger.Value(),
	}
}
