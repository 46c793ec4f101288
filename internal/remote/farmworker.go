package remote

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"zkflow/internal/obs"
	"zkflow/internal/zkvm"
)

// Farm worker: dials the coordinator, registers, heartbeats, and
// proves dispatched jobs. Segment jobs for the same (request, seed)
// share one traced execution through a small refcounted cache, so a
// worker handed several segments of an epoch pays the emulator pass
// once.

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// Name is the worker's display name (defaults to a coordinator-
	// assigned "worker-<id>").
	Name string
	// Capacity is the number of jobs the worker proves concurrently
	// (default 1).
	Capacity int
	// Metrics receives the worker's farmworker.* counters and, from the
	// default job prover, the per-stage prover breakdown
	// (prover.stage.*_seconds); nil = a private registry.
	Metrics *obs.Registry
	// Prove overrides job proving — the fault-injection hook. nil uses
	// the default local prover.
	Prove ProveJobFunc
	// Dial overrides connection establishment — the other
	// fault-injection hook. nil uses net.Dial("tcp", ...).
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// SuppressHeartbeats stops the heartbeat loop entirely (fault
	// injection: a wedged-but-connected worker).
	SuppressHeartbeats bool
}

// WorkerJob is one decoded dispatch handed to a ProveJobFunc: it asks
// for segment SegIndex of the run, which is 0 for a run proved as one
// segment.
type WorkerJob struct {
	ID       uint64
	SegIndex int
	Seed     [32]byte
	Prog     *zkvm.Program
	Input    []uint32
	Opts     zkvm.ProveOptions
}

// ProveJobFunc proves one job, returning the wire payload: the
// one-segment receipt of the job's segment.
type ProveJobFunc func(ctx context.Context, job *WorkerJob) ([]byte, error)

// runCache shares SegmentRuns between segment jobs with the same
// (request, seed), keeping at most runCacheSize idle runs alive.
type runCache struct {
	mu      sync.Mutex
	entries map[[32]byte]*runCacheEntry
	order   [][32]byte // LRU, oldest first
}

type runCacheEntry struct {
	run  *zkvm.SegmentRun
	refs int
}

const runCacheSize = 2

func newRunCache() *runCache {
	return &runCache{entries: make(map[[32]byte]*runCacheEntry)}
}

func runCacheKey(req []byte, seed [32]byte) [32]byte {
	h := sha256.New()
	h.Write(seed[:])
	h.Write(req)
	var k [32]byte
	h.Sum(k[:0])
	return k
}

// acquire returns the cached run for key, executing the guest on a
// miss. The caller must release with the same key.
func (rc *runCache) acquire(key [32]byte, build func() (*zkvm.SegmentRun, error)) (*zkvm.SegmentRun, error) {
	rc.mu.Lock()
	if e, ok := rc.entries[key]; ok {
		e.refs++
		rc.touchLocked(key)
		rc.mu.Unlock()
		return e.run, nil
	}
	rc.mu.Unlock()
	// Build outside the lock: executions are slow and independent.
	run, err := build()
	if err != nil {
		return nil, err
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if e, ok := rc.entries[key]; ok {
		// Lost a build race; keep the established run.
		e.refs++
		rc.touchLocked(key)
		run.Release()
		return e.run, nil
	}
	rc.entries[key] = &runCacheEntry{run: run, refs: 1}
	rc.order = append(rc.order, key)
	rc.evictLocked()
	return run, nil
}

func (rc *runCache) release(key [32]byte) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if e, ok := rc.entries[key]; ok && e.refs > 0 {
		e.refs--
	}
	rc.evictLocked()
}

func (rc *runCache) touchLocked(key [32]byte) {
	for i, k := range rc.order {
		if k == key {
			rc.order = append(append(rc.order[:i:i], rc.order[i+1:]...), key)
			return
		}
	}
}

// evictLocked releases idle runs beyond the cache bound, oldest first,
// and every idle one-segment run: it has no sibling job to share it with.
func (rc *runCache) evictLocked() {
	over := len(rc.entries) - runCacheSize
	order := rc.order[:0]
	for _, k := range rc.order {
		if e := rc.entries[k]; e.refs == 0 && (over > 0 || e.run.Segments() == 1) {
			delete(rc.entries, k)
			e.run.Release()
			over--
			continue
		}
		order = append(order, k)
	}
	rc.order = order
}

// drain releases every idle cached run (worker shutdown).
func (rc *runCache) drain() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for k, e := range rc.entries {
		if e.refs == 0 {
			delete(rc.entries, k)
			e.run.Release()
		}
	}
	rc.order = rc.order[:0]
}

// defaultProveJob proves a job locally through the shared run cache and
// answers with its segment as a one-segment receipt. Proving stages are
// timed into stages.
func defaultProveJob(cache *runCache, stages zkvm.StageObserver) ProveJobFunc {
	return func(_ context.Context, job *WorkerJob) ([]byte, error) {
		opts := job.Opts
		opts.Observer = stages
		key := runCacheKey(EncodeRequest(job.Prog, job.Input, job.Opts), job.Seed)
		run, err := cache.acquire(key, func() (*zkvm.SegmentRun, error) {
			return zkvm.NewSegmentRun(job.Prog, job.Input, opts, job.Seed)
		})
		if err != nil {
			return nil, err
		}
		defer cache.release(key)
		sr, err := run.ProveSegment(job.SegIndex)
		if err != nil {
			return nil, err
		}
		return (&zkvm.Receipt{Segments: []*zkvm.SegmentReceipt{sr}}).MarshalBinary()
	}
}

// RunWorker connects to a coordinator and proves jobs until the
// context is cancelled or the connection dies (callers reconnect by
// calling it again). The returned error is nil only on context
// cancellation.
func RunWorker(ctx context.Context, addr string, cfg WorkerConfig) error {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	var (
		cJobs     = reg.Counter("farmworker.jobs")
		cOK       = reg.Counter("farmworker.results_ok")
		cFail     = reg.Counter("farmworker.results_err")
		gInFlight = reg.Gauge("farmworker.in_flight")
	)

	dial := cfg.Dial
	if dial == nil {
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	conn, err := dial(ctx, addr)
	if err != nil {
		return fmt.Errorf("remote: worker dial %s: %w", addr, err)
	}
	defer conn.Close()

	var sendMu sync.Mutex
	send := func(typ byte, payload []byte) error {
		sendMu.Lock()
		defer sendMu.Unlock()
		return writeFrame(conn, typ, payload)
	}

	if err := send(frameHello, encodeHello(helloMsg{Name: cfg.Name, Capacity: uint32(cfg.Capacity)})); err != nil {
		return fmt.Errorf("remote: worker hello: %w", err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("remote: worker awaiting welcome: %w", err)
	}
	if typ != frameWelcome {
		return fmt.Errorf("%w: expected welcome, got frame %#x", ErrBadFrame, typ)
	}
	welcome, err := decodeWelcome(payload)
	if err != nil {
		return err
	}

	// Everything below shares the connection's lifetime. Cancellation
	// closes the connection so the read loop unblocks promptly.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		<-wctx.Done()
		conn.Close()
	}()
	var inFlight sync.WaitGroup

	beat := time.Duration(welcome.HeartbeatMs) * time.Millisecond
	if beat <= 0 {
		beat = DefaultHeartbeatEvery
	}
	if !cfg.SuppressHeartbeats {
		go func() {
			tick := time.NewTicker(beat)
			defer tick.Stop()
			for {
				select {
				case <-wctx.Done():
					return
				case <-tick.C:
				}
				if err := send(frameHeartbeat, nil); err != nil {
					cancel()
					return
				}
			}
		}()
	}

	cache := newRunCache()
	defer cache.drain()
	prove := cfg.Prove
	if prove == nil {
		prove = defaultProveJob(cache, obs.NewStageRecorder(reg, "prover.stage."))
	}

	// Read loop: dispatches spawn prover goroutines bounded by the
	// announced capacity (the coordinator respects it; the semaphore
	// guards against a buggy or malicious one).
	slots := make(chan struct{}, cfg.Capacity)
	var readErr error
readLoop:
	for {
		typ, payload, err := readFrame(conn)
		if err != nil {
			if ctx.Err() != nil {
				err = nil
			}
			readErr = err
			break readLoop
		}
		if typ != frameJob {
			readErr = fmt.Errorf("%w: unexpected frame %#x from coordinator", ErrBadFrame, typ)
			break readLoop
		}
		msg, err := decodeJob(payload)
		if err != nil {
			readErr = err
			break readLoop
		}
		job, err := parseJob(msg)
		if err != nil {
			// A job that does not decode is answered, not fatal: the
			// coordinator built it, so tell it what went wrong.
			send(frameResult, encodeResult(resultMsg{JobID: msg.JobID, OK: false, Payload: []byte(err.Error())}))
			continue
		}
		select {
		case slots <- struct{}{}:
		case <-wctx.Done():
			readErr = nil
			break readLoop
		}
		inFlight.Add(1)
		gInFlight.Add(1)
		cJobs.Inc()
		go func() {
			defer func() {
				<-slots
				gInFlight.Add(-1)
				inFlight.Done()
			}()
			out, err := prove(wctx, job)
			if err != nil {
				if wctx.Err() != nil && errors.Is(err, context.Canceled) {
					return
				}
				cFail.Inc()
				send(frameResult, encodeResult(resultMsg{JobID: job.ID, OK: false, Payload: []byte(err.Error())}))
				return
			}
			cOK.Inc()
			if err := send(frameResult, encodeResult(resultMsg{JobID: job.ID, OK: true, Payload: out})); err != nil {
				cancel()
			}
		}()
	}
	cancel()
	conn.Close()
	inFlight.Wait()
	return readErr
}
