// Package remote implements off-path proof generation (paper §2.2 and
// §7: routers and collectors are resource-constrained, so "proof
// generation [is] performed on an off-path compute environment,
// decoupled from the data collection process") as a prover farm: a
// Coordinator beside the collector, and workers that dial in over TCP
// and prove what it dispatches. The paper's single off-path prover is a
// farm of one worker; its proof parallelisation is the same farm with
// more.
//
// Trust model: a worker is the operator's own compute node — it sees
// private inputs (like the paper's off-path prover) but cannot forge
// results, because the coordinator re-checks every returned receipt's
// seal and the eventual verifiers check it again.
package remote

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"zkflow/internal/obs"
	"zkflow/internal/zkvm"
)

// Farm coordinator: the dispatch plane of the prover farm.
//
// Workers dial in over TCP, register with a Hello (name, capacity) and
// keep a heartbeat running; the coordinator dispatches proving jobs —
// whole guest runs or individual continuation segments — from one FIFO
// queue to the live worker with the most free slots, so a freed slot
// anywhere pulls the next queued job and a fast worker, freeing its
// slots sooner, takes more of them. Failover is first-class: a worker
// whose connection delivers no frame for heartbeatMiss heartbeat
// intervals, or drops, is declared dead, its connection is closed (so
// late results can never race in), and its in-flight jobs are re-queued
// at the front of the queue. Exactly-once delivery is enforced at the
// result path: the first accepted result per job wins, anything later
// is counted and dropped.
//
// Determinism makes all of this safe: every job carries the master
// salt seed, so whichever worker (re-)proves a segment produces the
// same bytes, and the assembled receipt is byte-identical to a
// single prover's output at any worker count and under any failover
// schedule.

// FarmConfig configures a Coordinator.
type FarmConfig struct {
	// HeartbeatEvery is the heartbeat interval workers are told to use
	// (default DefaultHeartbeatEvery); a connection that delivers no
	// frame for heartbeatMiss of them is dead.
	HeartbeatEvery time.Duration
	// Metrics receives the farm's observability stream (nil = a
	// private registry): farm.workers, farm.jobs_queued,
	// farm.jobs_inflight, farm.jobs_dispatched, farm.jobs_requeued,
	// farm.results_ok/err/duplicate, farm.bad_frames and
	// farm.workers_dead, and the per-worker
	// farm.worker.<name>.in_flight / .requeued / .last_frame_unix_ms gauges.
	Metrics *obs.Registry
}

// DefaultHeartbeatEvery is the heartbeat interval when FarmConfig
// names none.
const DefaultHeartbeatEvery = 500 * time.Millisecond

// heartbeatMiss is how many heartbeat intervals a worker connection may
// go without delivering a frame — its hello first, then heartbeats and
// results — before the worker is declared dead.
const heartbeatMiss = 3

// ErrFarmClosed reports a job submitted to (or queued on) a closed
// coordinator.
var ErrFarmClosed = errors.New("remote: farm coordinator closed")

// farmJob is one queued or in-flight unit of proving work: segment
// segIndex of the run req asks for (0 for an uncut run), proved under
// seed.
type farmJob struct {
	id       uint64
	segIndex uint32
	seed     [32]byte
	req      []byte

	delivered bool
	done      chan jobOutcome // buffered(1); closed never
	abandoned bool            // caller gave up (ctx cancelled)
}

type jobOutcome struct {
	payload []byte
	err     error
}

// farmWorker is the coordinator's view of one registered worker.
type farmWorker struct {
	id       uint32
	name     string
	capacity int
	conn     net.Conn
	sendMu   sync.Mutex

	inflight map[uint64]*farmJob
	dead     bool

	gInFlight  *obs.Gauge
	gRequeued  *obs.Gauge
	gLastFrame *obs.Gauge
}

// free returns the worker's free job slots.
func (w *farmWorker) free() int { return w.capacity - len(w.inflight) }

// Coordinator accepts worker registrations and dispatches proving
// jobs. Its Prove method is a core.ProveFunc, so it drops into
// core.Options.Prove in place of the local prover.
type Coordinator struct {
	cfg FarmConfig

	mu      sync.Mutex
	cond    *sync.Cond // signalled on queue/worker/slot changes
	workers map[uint32]*farmWorker
	queue   []*farmJob // FIFO; failover re-queues at the front
	nextWID uint32
	nextJID uint64
	closed  bool

	ln       net.Listener
	dispatch sync.WaitGroup

	reg          *obs.Registry
	gWorkers     *obs.Gauge
	gQueued      *obs.Gauge
	gInflight    *obs.Gauge
	cDispatched  *obs.Counter
	cRequeued    *obs.Counter
	cResultsOK   *obs.Counter
	cResultsErr  *obs.Counter
	cResultsDup  *obs.Counter
	cBadFrames   *obs.Counter
	cWorkersDead *obs.Counter
}

// NewCoordinator creates a farm coordinator. Call Serve (or Start) to
// accept workers.
func NewCoordinator(cfg FarmConfig) *Coordinator {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Coordinator{
		cfg:          cfg,
		workers:      make(map[uint32]*farmWorker),
		reg:          reg,
		gWorkers:     reg.Gauge("farm.workers"),
		gQueued:      reg.Gauge("farm.jobs_queued"),
		gInflight:    reg.Gauge("farm.jobs_inflight"),
		cDispatched:  reg.Counter("farm.jobs_dispatched"),
		cRequeued:    reg.Counter("farm.jobs_requeued"),
		cResultsOK:   reg.Counter("farm.results_ok"),
		cResultsErr:  reg.Counter("farm.results_err"),
		cResultsDup:  reg.Counter("farm.results_duplicate"),
		cBadFrames:   reg.Counter("farm.bad_frames"),
		cWorkersDead: reg.Counter("farm.workers_dead"),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Start listens on addr and serves in the background.
func (c *Coordinator) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.ln = ln
	c.mu.Unlock()
	go c.Serve(ln)
	return nil
}

// Addr returns the listen address ("" before Start/Serve).
func (c *Coordinator) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// Serve accepts worker connections on ln until Close (or a listener
// failure). It also runs the dispatcher.
func (c *Coordinator) Serve(ln net.Listener) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ln.Close()
		return ErrFarmClosed
	}
	c.ln = ln
	c.mu.Unlock()

	c.dispatch.Add(1)
	go c.dispatchLoop()

	for {
		conn, err := ln.Accept()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go c.handleConn(conn)
	}
}

// Close shuts the coordinator down: the listener stops, every worker
// connection closes, queued and in-flight jobs fail with ErrFarmClosed.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ln := c.ln
	var conns []net.Conn
	for _, w := range c.workers {
		w.dead = true
		conns = append(conns, w.conn)
		for id, j := range w.inflight {
			delete(w.inflight, id)
			c.deliverLocked(j, jobOutcome{err: ErrFarmClosed})
		}
	}
	for _, j := range c.queue {
		c.deliverLocked(j, jobOutcome{err: ErrFarmClosed})
	}
	c.queue = nil
	c.gQueued.Set(0)
	c.cond.Broadcast()
	c.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, conn := range conns {
		conn.Close()
	}
	c.dispatch.Wait()
	return nil
}

// Workers returns the live worker count.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// WaitForWorkers blocks until at least n workers are registered or the
// context expires.
func (c *Coordinator) WaitForWorkers(ctx context.Context, n int) error {
	for {
		c.mu.Lock()
		got, closed := len(c.workers), c.closed
		c.mu.Unlock()
		if closed {
			return ErrFarmClosed
		}
		if got >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("remote: waiting for %d workers (have %d): %w", n, got, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// handleConn runs one worker connection: registration, then a read
// loop for heartbeats and results. Every frame, the hello included,
// must finish arriving within heartbeatMiss heartbeat intervals of the
// previous one (or of the accept): that one deadline is the farm's
// liveness rule. A missed deadline, a malformed frame or any other read
// error kills the worker and triggers failover.
func (c *Coordinator) handleConn(conn net.Conn) {
	deadline := heartbeatMiss * c.cfg.HeartbeatEvery
	next := func() (byte, []byte, error) {
		conn.SetReadDeadline(time.Now().Add(deadline))
		return readFrame(conn)
	}
	typ, payload, err := next()
	if err != nil || typ != frameHello {
		c.cBadFrames.Inc()
		conn.Close()
		return
	}
	hello, err := decodeHello(payload)
	if err != nil || hello.Capacity == 0 {
		c.cBadFrames.Inc()
		conn.Close()
		return
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.nextWID++
	w := &farmWorker{
		id:       c.nextWID,
		name:     hello.Name,
		capacity: int(hello.Capacity),
		conn:     conn,
		inflight: make(map[uint64]*farmJob),
	}
	if w.name == "" {
		w.name = fmt.Sprintf("worker-%d", w.id)
	}
	prefix := "farm.worker." + w.name
	w.gInFlight = c.reg.Gauge(prefix + ".in_flight")
	w.gRequeued = c.reg.Gauge(prefix + ".requeued")
	w.gLastFrame = c.reg.Gauge(prefix + ".last_frame_unix_ms")
	w.gInFlight.Set(0)
	w.gLastFrame.Set(time.Now().UnixMilli())
	c.workers[w.id] = w
	c.gWorkers.Set(int64(len(c.workers)))
	c.cond.Broadcast()
	c.mu.Unlock()

	if err := c.send(w, frameWelcome, encodeWelcome(welcomeMsg{
		HeartbeatMs: uint32(c.cfg.HeartbeatEvery / time.Millisecond),
	})); err != nil {
		c.killWorker(w)
		return
	}

	for {
		typ, payload, err := next()
		if err != nil {
			c.killWorker(w)
			return
		}
		w.gLastFrame.Set(time.Now().UnixMilli())
		switch typ {
		case frameHeartbeat:
			if len(payload) != 0 {
				c.cBadFrames.Inc()
				c.killWorker(w)
				return
			}
		case frameResult:
			res, err := decodeResult(payload)
			if err != nil {
				c.cBadFrames.Inc()
				c.killWorker(w)
				return
			}
			c.handleResult(w, res)
		default:
			c.cBadFrames.Inc()
			c.killWorker(w)
			return
		}
	}
}

// send writes one frame to a worker, serialised per connection.
func (c *Coordinator) send(w *farmWorker, typ byte, payload []byte) error {
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	return writeFrame(w.conn, typ, payload)
}

// killWorker declares a worker dead: its connection closes (late
// results can never arrive), its in-flight jobs are re-queued at the
// FRONT of the queue (ordered by segment index so re-proving follows
// chain order), and the dispatcher is woken. Idempotent.
func (c *Coordinator) killWorker(w *farmWorker) {
	c.mu.Lock()
	if w.dead {
		c.mu.Unlock()
		return
	}
	w.dead = true
	delete(c.workers, w.id)
	c.gWorkers.Set(int64(len(c.workers)))
	c.cWorkersDead.Inc()
	var orphans []*farmJob
	for id, j := range w.inflight {
		delete(w.inflight, id)
		orphans = append(orphans, j)
	}
	w.gInFlight.Set(0)
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].segIndex < orphans[j].segIndex })
	requeued := 0
	for i := len(orphans) - 1; i >= 0; i-- {
		j := orphans[i]
		if j.delivered || j.abandoned {
			continue
		}
		c.queue = append([]*farmJob{j}, c.queue...)
		requeued++
	}
	if requeued > 0 {
		c.cRequeued.Add(uint64(requeued))
		w.gRequeued.Add(int64(requeued))
		c.gQueued.Set(int64(len(c.queue)))
	}
	c.gInflight.Add(-int64(len(orphans)))
	c.cond.Broadcast()
	c.mu.Unlock()
	w.conn.Close()
}

// handleResult delivers a finished job exactly once: the result must
// match a job currently in-flight on this worker, and the first
// delivery wins. Anything else — unknown job, already-delivered job —
// is counted as a duplicate and dropped.
func (c *Coordinator) handleResult(w *farmWorker, res resultMsg) {
	c.mu.Lock()
	j, ok := w.inflight[res.JobID]
	if !ok {
		c.cResultsDup.Inc()
		c.mu.Unlock()
		return
	}
	delete(w.inflight, res.JobID)
	w.gInFlight.Set(int64(len(w.inflight)))
	c.gInflight.Add(-1)
	if j.delivered {
		c.cResultsDup.Inc()
		c.cond.Broadcast()
		c.mu.Unlock()
		return
	}
	var out jobOutcome
	if res.OK {
		c.cResultsOK.Inc()
		out = jobOutcome{payload: res.Payload}
	} else {
		c.cResultsErr.Inc()
		out = jobOutcome{err: fmt.Errorf("%w: worker %s: %s", ErrRemote, w.name, res.Payload)}
	}
	c.deliverLocked(j, out)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// deliverLocked marks a job delivered and hands its outcome to the
// waiting caller. c.mu must be held.
func (c *Coordinator) deliverLocked(j *farmJob, out jobOutcome) {
	if j.delivered {
		return
	}
	j.delivered = true
	j.done <- out // buffered(1): never blocks
}

// dispatchLoop hands the queue head to pickWorkerLocked's worker
// whenever one has a free slot.
func (c *Coordinator) dispatchLoop() {
	defer c.dispatch.Done()
	for {
		c.mu.Lock()
		var (
			j *farmJob
			w *farmWorker
		)
		for {
			if c.closed {
				c.mu.Unlock()
				return
			}
			// Drop abandoned jobs from the queue head.
			for len(c.queue) > 0 && (c.queue[0].abandoned || c.queue[0].delivered) {
				c.queue = c.queue[1:]
			}
			c.gQueued.Set(int64(len(c.queue)))
			if len(c.queue) > 0 {
				w = c.pickWorkerLocked()
				if w != nil {
					j = c.queue[0]
					c.queue = c.queue[1:]
					break
				}
			}
			c.cond.Wait()
		}
		w.inflight[j.id] = j
		w.gInFlight.Set(int64(len(w.inflight)))
		c.gQueued.Set(int64(len(c.queue)))
		c.gInflight.Add(1)
		c.cDispatched.Inc()
		c.mu.Unlock()

		if err := c.send(w, frameJob, encodeJob(jobMsg{
			JobID: j.id, SegIndex: j.segIndex, Seed: j.seed, Req: j.req,
		})); err != nil {
			c.killWorker(w)
		}
	}
}

// pickWorkerLocked returns the live worker with the most free slots,
// ties to the lowest ID (so tests are deterministic), or nil when every
// slot is taken. c.mu must be held.
func (c *Coordinator) pickWorkerLocked() *farmWorker {
	var best *farmWorker
	for _, w := range c.workers {
		if w.free() <= 0 {
			continue
		}
		if best == nil || w.free() > best.free() || (w.free() == best.free() && w.id < best.id) {
			best = w
		}
	}
	return best
}

// enqueue adds a job to the tail of the queue.
func (c *Coordinator) enqueue(segIndex uint32, seed [32]byte, req []byte) (*farmJob, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrFarmClosed
	}
	c.nextJID++
	j := &farmJob{
		id: c.nextJID, segIndex: segIndex, seed: seed, req: req,
		done: make(chan jobOutcome, 1),
	}
	c.queue = append(c.queue, j)
	c.gQueued.Set(int64(len(c.queue)))
	c.cond.Broadcast()
	return j, nil
}

// await blocks for a job outcome or caller cancellation. A cancelled
// job is marked abandoned: if still queued the dispatcher skips it, if
// in flight the eventual result is dropped by the delivered check.
func (c *Coordinator) await(ctx context.Context, j *farmJob) ([]byte, error) {
	select {
	case out := <-j.done:
		return out.payload, out.err
	case <-ctx.Done():
		c.mu.Lock()
		j.abandoned = true
		if !j.delivered {
			j.delivered = true // suppress any late delivery
		}
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// ProveSeeded proves one guest run on the farm under an explicit
// master salt seed. The coordinator dispatches one job per segment —
// planning the count with a cheap emulator pass when opts.SegmentCycles
// cuts the run, one segment otherwise — each answered with a
// one-segment receipt, and puts the segments in index order. The
// receipt is verified before it is returned, and it is byte-identical
// to zkvm.ProveSeeded(prog, input, opts, seed) no matter how many
// workers served it or which of them failed along the way.
func (c *Coordinator) ProveSeeded(ctx context.Context, prog *zkvm.Program, input []uint32, opts zkvm.ProveOptions, seed [32]byte) (*zkvm.Receipt, error) {
	n := 1
	if opts.SegmentCycles > 0 {
		var err error
		if n, err = zkvm.PlanSegments(prog, input, opts); err != nil {
			return nil, err // guest aborts surface before any dispatch
		}
	}
	req := EncodeRequest(prog, input, opts)
	jobs := make([]*farmJob, n)
	for i := range jobs {
		j, err := c.enqueue(uint32(i), seed, req)
		if err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	segs := make([]*zkvm.SegmentReceipt, 0, n)
	for i, j := range jobs {
		payload, err := c.await(ctx, j)
		var r *zkvm.Receipt
		if err == nil {
			if r, err = zkvm.UnmarshalReceipt(payload); err != nil {
				err = fmt.Errorf("%w: %v", ErrRemote, err)
			} else if r.NumSegments() != 1 {
				err = fmt.Errorf("%w: segment job answered with %d segments", ErrRemote, r.NumSegments())
			}
		}
		if err != nil {
			c.abandonJobs(jobs[i+1:])
			return nil, fmt.Errorf("remote: farm job %d of %d: %w", i, n, err)
		}
		segs = append(segs, r.Segments[0])
	}
	return c.checkReceipt(prog, &zkvm.Receipt{Segments: segs}, opts.Checks)
}

// abandonJobs marks every job in jobs abandoned under the lock, so
// failover drops them instead of re-queueing work nobody will await.
// Fan-out callers use it to unwind after a mid-stream error.
func (c *Coordinator) abandonJobs(jobs []*farmJob) {
	c.mu.Lock()
	for _, j := range jobs {
		j.abandoned = true
	}
	c.mu.Unlock()
}

// checkReceipt locally re-verifies a receipt a worker returned, or one
// assembled from workers' segments, before handing it to the caller: a
// buggy or compromised worker cannot slip an invalid receipt — nor one
// of an aborted guest, nor one with fewer sampled checks than the
// request asked for — into the aggregation chain.
func (c *Coordinator) checkReceipt(prog *zkvm.Program, receipt *zkvm.Receipt, checks int) (*zkvm.Receipt, error) {
	if receipt.Image() != prog.ID() {
		return nil, fmt.Errorf("%w: farm returned a receipt for image %v", ErrRemote, receipt.Image())
	}
	if checks <= 0 {
		checks = zkvm.DefaultChecks
	}
	if err := zkvm.Verify(prog, receipt, zkvm.VerifyOptions{MinChecks: checks}); err != nil {
		return nil, fmt.Errorf("%w: farm receipt invalid: %v", ErrRemote, err)
	}
	return receipt, nil
}

// Prove satisfies core.ProveFunc: ProveSeeded under a fresh random
// master seed.
func (c *Coordinator) Prove(prog *zkvm.Program, input []uint32, opts zkvm.ProveOptions) (zkvm.AnyReceipt, error) {
	var seed [32]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("remote: salt seed: %w", err)
	}
	r, err := c.ProveSeeded(context.Background(), prog, input, opts, seed)
	if err != nil {
		return nil, err
	}
	return r, nil
}
