package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"zkflow/internal/obs"
)

// Fault-injection harness for the prover farm. faultConn sits between a
// worker and the coordinator and rewrites the worker->coordinator frame
// stream (drop, delay, duplicate, truncate); fault workers use the
// WorkerConfig hooks (Prove, Dial, SuppressHeartbeats) to wedge, crash
// mid-segment, or go silent. Every scenario must end with the farm
// producing a composite byte-identical to the single-prover golden,
// with every segment accepted exactly once.

// faultRule describes what to do with one frame type on the wire.
type faultRule struct {
	drop  bool
	dup   bool
	delay time.Duration
}

// faultConn wraps a worker's connection and applies per-frame-type
// rules to written frames. Reads pass through untouched. writeFrame
// issues separate header and payload writes, so faultConn reassembles
// complete frames before forwarding.
type faultConn struct {
	net.Conn
	mu    sync.Mutex
	buf   []byte
	rules map[byte]faultRule
}

func (f *faultConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.buf = append(f.buf, p...)
	for {
		if len(f.buf) < frameHeader {
			break
		}
		n := int(binary.LittleEndian.Uint32(f.buf[5:9]))
		if len(f.buf) < frameHeader+n {
			break
		}
		frame := append([]byte(nil), f.buf[:frameHeader+n]...)
		f.buf = f.buf[frameHeader+n:]
		r := f.rules[frame[4]]
		if r.delay > 0 {
			time.Sleep(r.delay)
		}
		if r.drop {
			continue
		}
		if _, err := f.Conn.Write(frame); err != nil {
			return 0, err
		}
		if r.dup {
			if _, err := f.Conn.Write(frame); err != nil {
				return 0, err
			}
		}
	}
	return len(p), nil
}

// faultDial returns a Dial hook that wraps the TCP connection in a
// faultConn and publishes the raw connection for kill-style faults.
func faultDial(rules map[byte]faultRule, connOut chan<- net.Conn) func(context.Context, string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		if connOut != nil {
			select {
			case connOut <- conn:
			default:
			}
		}
		return &faultConn{Conn: conn, rules: rules}, nil
	}
}

// faultGolden proves the reference composite once per test binary.
var faultGoldenOnce struct {
	sync.Once
	bytes []byte
	segs  int
}

func faultSeed() [32]byte { return [32]byte{0xfa, 0x17} }

func goldenComposite(t *testing.T) ([]byte, int) {
	t.Helper()
	faultGoldenOnce.Do(func() {
		prog, input := loopProgram()
		comp := localComposite(t, prog, input, farmOpts(), faultSeed())
		faultGoldenOnce.bytes, _ = comp.MarshalBinary()
		faultGoldenOnce.segs = comp.NumSegments()
	})
	return faultGoldenOnce.bytes, faultGoldenOnce.segs
}

// proveOnFarm runs the reference workload through the coordinator and
// returns the composite bytes.
func proveOnFarm(t *testing.T, c *Coordinator) []byte {
	t.Helper()
	prog, input := loopProgram()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	r, err := c.ProveSeeded(ctx, prog, input, farmOpts(), faultSeed())
	if err != nil {
		t.Fatalf("farm prove under fault: %v", err)
	}
	out, _ := r.MarshalBinary()
	return out
}

// hangProve blocks until the worker shuts down — a wedged prover.
func hangProve(ctx context.Context, _ *WorkerJob) ([]byte, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestFarmFaultConnRules drives the wire-level fault matrix: duplicated
// results must be deduplicated (exactly-once), delayed results must
// still assemble, and dropped heartbeats must get a wedged worker
// declared dead with its jobs re-queued to a live one.
func TestFarmFaultConnRules(t *testing.T) {
	golden, segs := goldenComposite(t)
	cases := []struct {
		name     string
		rules    map[byte]faultRule
		hang     bool // faulty worker also wedges (never completes a job)
		wantDup  bool
		wantReq  bool // requeues expected (faulty worker dies)
		wantDead bool
	}{
		{
			name:    "duplicate-results",
			rules:   map[byte]faultRule{frameResult: {dup: true}},
			wantDup: true,
		},
		{
			name:  "delayed-results",
			rules: map[byte]faultRule{frameResult: {delay: 5 * time.Millisecond}},
		},
		{
			name:     "dropped-heartbeats-stale-worker",
			rules:    map[byte]faultRule{frameHeartbeat: {drop: true}},
			hang:     true,
			wantReq:  true,
			wantDead: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			c := testFarm(t, reg)
			faulty := WorkerConfig{
				Name:     "faulty",
				Capacity: 2,
				Dial:     faultDial(tc.rules, nil),
			}
			if tc.hang {
				faulty.Prove = hangProve
			}
			startWorker(t, c.Addr(), faulty)
			waitWorkers(t, c, 1)
			if tc.wantReq {
				// A live worker must exist for failover to land on.
				startWorker(t, c.Addr(), WorkerConfig{Name: "live", Capacity: 1})
				waitWorkers(t, c, 2)
			}

			got := proveOnFarm(t, c)
			if !bytes.Equal(got, golden) {
				t.Fatal("composite differs from single-prover golden under fault")
			}
			if n := reg.Counter("farm.results_ok").Value(); n != uint64(segs) {
				t.Fatalf("accepted %d results, want exactly %d", n, segs)
			}
			if tc.wantDup && reg.Counter("farm.results_duplicate").Value() == 0 {
				t.Error("duplicated result frames were not detected")
			}
			if !tc.wantDup && reg.Counter("farm.results_duplicate").Value() != 0 {
				t.Error("unexpected duplicate results")
			}
			if tc.wantReq && reg.Counter("farm.jobs_requeued").Value() == 0 {
				t.Error("wedged worker's jobs were not re-queued")
			}
			if tc.wantDead && reg.Counter("farm.workers_dead").Value() == 0 {
				t.Error("stale worker was not declared dead")
			}
		})
	}
}

// TestFarmFaultDisconnectMidSegment crashes a worker while it holds a
// segment: the worker's connection dies mid-job and the segment must be
// re-proved by the survivor, exactly once, with byte-identical output.
func TestFarmFaultDisconnectMidSegment(t *testing.T) {
	golden, segs := goldenComposite(t)
	reg := obs.NewRegistry()
	c := testFarm(t, reg)

	connCh := make(chan net.Conn, 1)
	var crashOnce sync.Once
	crashProve := func(ctx context.Context, job *WorkerJob) ([]byte, error) {
		crashOnce.Do(func() {
			if conn := <-connCh; conn != nil {
				conn.Close() // simulated power loss mid-segment
			}
		})
		<-ctx.Done() // the "machine" is gone; no result ever leaves
		return nil, ctx.Err()
	}
	startWorker(t, c.Addr(), WorkerConfig{
		Name:     "crasher",
		Capacity: 2,
		Dial:     faultDial(nil, connCh),
		Prove:    crashProve,
	})
	startWorker(t, c.Addr(), WorkerConfig{Name: "survivor", Capacity: 1})
	waitWorkers(t, c, 2)

	got := proveOnFarm(t, c)
	if !bytes.Equal(got, golden) {
		t.Fatal("composite differs after mid-segment disconnect")
	}
	if n := reg.Counter("farm.results_ok").Value(); n != uint64(segs) {
		t.Fatalf("accepted %d results, want exactly %d (no lost or double-proved segments)", n, segs)
	}
	if reg.Counter("farm.jobs_requeued").Value() == 0 {
		t.Error("crashed worker's in-flight segments were not re-queued")
	}
	if reg.Counter("farm.workers_dead").Value() == 0 {
		t.Error("crashed worker was not declared dead")
	}
}

// TestFarmFaultStaleHeartbeatSuppressed covers the worker-side wedge: a
// connected worker that stops heartbeating entirely (SuppressHeartbeats)
// while holding jobs must be failed over.
func TestFarmFaultStaleHeartbeatSuppressed(t *testing.T) {
	golden, segs := goldenComposite(t)
	reg := obs.NewRegistry()
	c := testFarm(t, reg)
	startWorker(t, c.Addr(), WorkerConfig{
		Name:               "silent",
		Capacity:           4,
		Prove:              hangProve,
		SuppressHeartbeats: true,
	})
	startWorker(t, c.Addr(), WorkerConfig{Name: "live", Capacity: 2})
	waitWorkers(t, c, 2)

	got := proveOnFarm(t, c)
	if !bytes.Equal(got, golden) {
		t.Fatal("composite differs after stale-heartbeat failover")
	}
	if n := reg.Counter("farm.results_ok").Value(); n != uint64(segs) {
		t.Fatalf("accepted %d results, want exactly %d", n, segs)
	}
	if reg.Counter("farm.jobs_requeued").Value() == 0 {
		t.Error("silent worker's jobs were not re-queued to the live worker")
	}
}

// TestFarmFaultSilentDialer: a connection that never sends its hello is
// held no longer than a registered worker that stops heartbeating —
// heartbeatMiss intervals — and is counted as a bad frame.
func TestFarmFaultSilentDialer(t *testing.T) {
	const every = 100 * time.Millisecond
	reg := obs.NewRegistry()
	c := NewCoordinator(FarmConfig{HeartbeatEvery: every, Metrics: reg})
	if err := c.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	conn, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	_, err = conn.Read(make([]byte, 1))
	took := time.Since(start)
	var nerr net.Error
	if err == nil || (errors.As(err, &nerr) && nerr.Timeout()) {
		t.Fatalf("silent dialer still connected after %v (read: %v)", took, err)
	}
	if limit := 2 * heartbeatMiss * every; took > limit {
		t.Fatalf("silent dialer disconnected after %v, want within %v", took, limit)
	}
	if reg.Counter("farm.bad_frames").Value() != 1 {
		t.Error("missing hello was not counted as a bad frame")
	}
}

// TestFarmFaultCrashDuringMerge kills the only worker after the
// coordinator has accepted every segment result but (potentially) before
// assembly finishes: the merge depends only on accepted results, so the
// composite must still come out byte-identical.
func TestFarmFaultCrashDuringMerge(t *testing.T) {
	golden, segs := goldenComposite(t)
	reg := obs.NewRegistry()
	c := testFarm(t, reg)
	cancelWorker := startWorker(t, c.Addr(), WorkerConfig{Name: "doomed", Capacity: 2})
	waitWorkers(t, c, 1)

	prog, input := loopProgram()
	resCh := make(chan error, 1)
	var got []byte
	go func() {
		r, err := c.ProveSeeded(context.Background(), prog, input, farmOpts(), faultSeed())
		if err == nil {
			got, _ = r.MarshalBinary()
		}
		resCh <- err
	}()
	// Wait until every result is accepted, then crash the worker.
	deadline := time.Now().Add(30 * time.Second)
	for reg.Counter("farm.results_ok").Value() < uint64(segs) {
		if time.Now().After(deadline) {
			t.Fatal("farm never accepted all results")
		}
		time.Sleep(time.Millisecond)
	}
	cancelWorker()
	if err := <-resCh; err != nil {
		t.Fatalf("merge failed after worker crash: %v", err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatal("composite differs when worker crashed during merge")
	}
	if reg.Counter("farm.jobs_requeued").Value() != 0 {
		t.Error("no jobs were in flight; nothing should have been re-queued")
	}
}

// TestFarmFaultMalformedFrames feeds the coordinator broken registration
// and post-registration frames: each must disconnect that connection —
// never panic or wedge — and an honest worker must still be served.
func TestFarmFaultMalformedFrames(t *testing.T) {
	golden, _ := goldenComposite(t)
	reg := obs.NewRegistry()
	c := testFarm(t, reg)

	expectClosed := func(t *testing.T, conn net.Conn) {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 64)
		for {
			if _, err := conn.Read(buf); err != nil {
				// EOF for a clean close; ECONNRESET when the coordinator
				// closed with our garbage still unread. A timeout means the
				// connection was left open — the actual failure mode.
				var nerr net.Error
				if errors.As(err, &nerr) && nerr.Timeout() {
					t.Fatal("coordinator left malformed connection open")
				}
				_ = io.EOF
				return
			}
		}
	}
	rawDial := func(t *testing.T) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", c.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	validHello := func(conn net.Conn) {
		writeFrame(conn, frameHello, encodeHello(helloMsg{Name: "evil", Capacity: 1}))
		readFrame(conn) // welcome
	}

	t.Run("garbage-before-hello", func(t *testing.T) {
		conn := rawDial(t)
		conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
		expectClosed(t, conn)
	})
	t.Run("zero-capacity-hello", func(t *testing.T) {
		conn := rawDial(t)
		writeFrame(conn, frameHello, encodeHello(helloMsg{Name: "zero", Capacity: 0}))
		expectClosed(t, conn)
	})
	t.Run("oversize-frame-length", func(t *testing.T) {
		conn := rawDial(t)
		validHello(conn)
		hdr := make([]byte, frameHeader)
		binary.LittleEndian.PutUint32(hdr, frameMagic)
		hdr[4] = frameHeartbeat
		binary.LittleEndian.PutUint32(hdr[5:], 0xffffffff)
		conn.Write(hdr)
		expectClosed(t, conn)
	})
	t.Run("heartbeat-with-payload", func(t *testing.T) {
		conn := rawDial(t)
		validHello(conn)
		writeFrame(conn, frameHeartbeat, []byte{0, 0, 0, 0}) // the retired in-flight count
		expectClosed(t, conn)
	})
	t.Run("unknown-frame-type", func(t *testing.T) {
		conn := rawDial(t)
		validHello(conn)
		writeFrame(conn, 0x7f, nil)
		expectClosed(t, conn)
	})
	t.Run("truncated-result", func(t *testing.T) {
		conn := rawDial(t)
		validHello(conn)
		writeFrame(conn, frameResult, []byte{1, 2, 3}) // shorter than any result
		expectClosed(t, conn)
	})

	if reg.Counter("farm.bad_frames").Value() == 0 {
		t.Error("malformed frames were not counted")
	}
	// The coordinator must still be fully serviceable.
	startWorker(t, c.Addr(), WorkerConfig{Name: "honest", Capacity: 2})
	waitWorkers(t, c, 1)
	if got := proveOnFarm(t, c); !bytes.Equal(got, golden) {
		t.Fatal("coordinator produced wrong bytes after malformed-frame attacks")
	}
}
