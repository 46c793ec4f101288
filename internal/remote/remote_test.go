package remote

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"zkflow/internal/core"
	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
	"zkflow/internal/zkvm"
)

func worker(t *testing.T) *Client {
	t.Helper()
	ts := httptest.NewServer(WorkerHandler(nil))
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client())
}

// simpleProgram journals the sum of two input words.
func simpleProgram() *zkvm.Program {
	a := zkvm.NewAssembler()
	a.ReadInput(zkvm.R2)
	a.ReadInput(zkvm.R3)
	a.Add(zkvm.R4, zkvm.R2, zkvm.R3)
	a.WriteJournal(zkvm.R4)
	a.HaltCode(0)
	return a.MustAssemble()
}

func TestRemoteProveRoundTrip(t *testing.T) {
	c := worker(t)
	prog := simpleProgram()
	receipt, err := c.Prove(prog, []uint32{20, 22}, zkvm.ProveOptions{Checks: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := zkvm.VerifyAny(prog, receipt, zkvm.VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	if receipt.JournalWords()[0] != 42 {
		t.Fatalf("journal %v", receipt.JournalWords())
	}
}

func TestRemoteGuestAbortSurfaces(t *testing.T) {
	c := worker(t)
	a := zkvm.NewAssembler()
	a.HaltCode(3)
	_, err := c.Prove(a.MustAssemble(), nil, zkvm.ProveOptions{Checks: 4})
	if err == nil {
		t.Fatal("aborted guest produced a receipt")
	}
}

func TestRemoteTrapSurfaces(t *testing.T) {
	c := worker(t)
	a := zkvm.NewAssembler()
	a.ReadInput(zkvm.R2) // no input: traps
	a.HaltCode(0)
	if _, err := c.Prove(a.MustAssemble(), nil, zkvm.ProveOptions{Checks: 4}); !errors.Is(err, ErrRemote) {
		t.Fatalf("got %v", err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	prog := simpleProgram()
	input := []uint32{1, 2, 3}
	opts := zkvm.ProveOptions{Checks: 9}
	p2, in2, o2, err := DecodeRequest(EncodeRequest(prog, input, opts))
	if err != nil {
		t.Fatal(err)
	}
	if p2.ID() != prog.ID() {
		t.Fatal("program lost")
	}
	if len(in2) != 3 || in2[2] != 3 {
		t.Fatal("input lost")
	}
	if o2.Checks != 9 {
		t.Fatal("options lost")
	}
}

func TestDecodeRequestRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("tiny"), make([]byte, 40)} {
		if _, _, _, err := DecodeRequest(data); err == nil {
			t.Fatalf("accepted %d bytes of garbage", len(data))
		}
	}
	good := EncodeRequest(simpleProgram(), []uint32{1}, zkvm.ProveOptions{})
	if _, _, _, err := DecodeRequest(good[:len(good)-2]); err == nil {
		t.Fatal("truncated request accepted")
	}
	good[8] = 2 // the reserved word that used to carry ProveOptions.Segments
	if _, _, _, err := DecodeRequest(good); err == nil {
		t.Fatal("nonzero reserved word accepted: the framing is no longer canonical")
	}
}

func TestOffPathAggregationPipeline(t *testing.T) {
	// The full §7 scenario: the operator's prover dispatches all
	// proving to an off-path worker; the auditor notices nothing.
	c := worker(t)
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: 9, NumFlows: 24, Routers: 2}, st, lg)
	if err := sim.RunEpochs(context.Background(), 0, 2, 8); err != nil {
		t.Fatal(err)
	}
	prover := core.NewProver(st, lg, core.Options{Checks: 6, Prove: c.Prove})
	verifier := core.NewVerifier(lg)
	for epoch := uint64(0); epoch < 2; epoch++ {
		res, err := prover.AggregateEpoch(epoch)
		if err != nil {
			t.Fatalf("off-path aggregate %d: %v", epoch, err)
		}
		if _, err := verifier.VerifyAggregation(res.Receipt); err != nil {
			t.Fatalf("verify %d: %v", epoch, err)
		}
	}
	qr, err := prover.Query("SELECT SUM(packets) FROM clogs;")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifier.VerifyQuery(qr.SQL, qr.Receipt); err != nil {
		t.Fatal(err)
	}
}

func TestOffPathTamperStillAborts(t *testing.T) {
	// Tampered telemetry must fail proving even through the worker.
	c := worker(t)
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: 10, NumFlows: 16, Routers: 2}, st, lg)
	if _, err := sim.RunEpoch(context.Background(), 0, 6); err != nil {
		t.Fatal(err)
	}
	st.Append(0, 0, []netflow.Record{{Key: netflow.FlowKey{SrcIP: 1}, Packets: 1, StartUnix: 1, EndUnix: 2}})
	prover := core.NewProver(st, lg, core.Options{Checks: 6, Prove: c.Prove})
	if _, err := prover.AggregateEpoch(0); err == nil {
		t.Fatal("tampered store proven off-path")
	}
}

func TestRequestRoundTripV2(t *testing.T) {
	prog := simpleProgram()
	opts := zkvm.ProveOptions{Checks: 9, SegmentCycles: 4096}
	req := EncodeRequest(prog, []uint32{7}, opts)
	_, _, o2, err := DecodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if o2.SegmentCycles != 4096 || o2.Checks != 9 {
		t.Fatalf("options lost: %+v", o2)
	}
	// SegmentCycles == 0 emits the v1 frame so old workers still parse.
	v1 := EncodeRequest(prog, []uint32{7}, zkvm.ProveOptions{Checks: 9})
	if binary.LittleEndian.Uint32(v1) != reqMagic {
		t.Fatal("zero SegmentCycles did not produce a v1 frame")
	}
	if _, _, _, err := DecodeRequest(v1); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecodeRequest(req[:len(req)-2]); err == nil {
		t.Fatal("truncated v2 request accepted")
	}
}

func TestRemoteSegmentedProve(t *testing.T) {
	c := worker(t)
	prog := simpleProgram()
	receipt, err := c.Prove(prog, []uint32{20, 22}, zkvm.ProveOptions{Checks: 6, SegmentCycles: 64})
	if err != nil {
		t.Fatal(err)
	}
	comp, ok := receipt.(*zkvm.CompositeReceipt)
	if !ok {
		t.Fatalf("worker returned %T, want composite", receipt)
	}
	if err := zkvm.VerifyComposite(prog, comp, zkvm.VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	if comp.JournalWords()[0] != 42 {
		t.Fatalf("journal %v", comp.JournalWords())
	}
}

// TestRemoteHostileSegmentCycles: SegmentCycles is a raw uint32 of the
// v2 request. The largest one over a five-instruction guest must cost
// the worker a five-row trace, not a slab sized by the cut.
func TestRemoteHostileSegmentCycles(t *testing.T) {
	c := worker(t)
	prog := simpleProgram()
	receipt, err := c.Prove(prog, []uint32{20, 22}, zkvm.ProveOptions{Checks: 6, SegmentCycles: math.MaxUint32})
	if err != nil {
		t.Fatal(err)
	}
	if err := zkvm.VerifyAny(prog, receipt, zkvm.VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestClientRetriesTransient: a worker that throws 503 twice before
// recovering must succeed within the retry budget, and the failed
// attempts must be counted.
func TestClientRetriesTransient(t *testing.T) {
	real := WorkerHandler(nil)
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "worker warming up", http.StatusServiceUnavailable)
			return
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, ts.Client())
	c.Backoff = time.Millisecond
	receipt, err := c.Prove(simpleProgram(), []uint32{20, 22}, zkvm.ProveOptions{Checks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if receipt.JournalWords()[0] != 42 {
		t.Fatal("bad journal after retries")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
}

// TestClientRetriesExhausted: a permanently dead worker errors after
// the bounded budget instead of blocking forever.
func TestClientRetriesExhausted(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, ts.Client())
	c.Retries = 2
	c.Backoff = time.Millisecond
	_, err := c.Prove(simpleProgram(), []uint32{1, 2}, zkvm.ProveOptions{Checks: 4})
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("got %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
}

// TestClientDeadlineOnHungWorker: a worker that never answers is cut
// off by the per-attempt deadline — the exact failure mode that used
// to block the sealing pipeline forever.
func TestClientDeadlineOnHungWorker(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	t.Cleanup(func() { close(release); ts.Close() })
	c := NewClient(ts.URL, ts.Client())
	c.Timeout = 50 * time.Millisecond
	c.Retries = -1 // single attempt
	t0 := time.Now()
	_, err := c.Prove(simpleProgram(), []uint32{1, 2}, zkvm.ProveOptions{Checks: 4})
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("got %v", err)
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("hung worker held the client for %v", elapsed)
	}
}

// TestClientContextCancelIsPermanent pins the retry-classification
// fix: a cancelled caller context used to look like a transport error
// and burn the full backoff schedule before unwinding. It must abort
// the loop on the spot — one attempt, no backoff sleeps.
func TestClientContextCancelIsPermanent(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		// Hang until the client gives up — but also honor release, so
		// ts.Close cannot deadlock on this connection if the server
		// misses the client's abort.
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(release) }) // LIFO: runs before ts.Close
	c := NewClient(ts.URL, ts.Client())
	c.Retries = 8
	c.Backoff = 500 * time.Millisecond // pre-fix: ≥ 500 ms of sleeps before unwinding
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, err := c.ProveContext(ctx, simpleProgram(), []uint32{1, 2}, zkvm.ProveOptions{Checks: 4})
	elapsed := time.Since(t0)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("got %v", err)
	}
	if elapsed >= c.Backoff {
		t.Fatalf("cancelled dispatch still ran the backoff loop (%v elapsed)", elapsed)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("cancelled dispatch retried: %d attempts", got)
	}
	// An already-expired deadline is equally permanent.
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	t0 = time.Now()
	if _, err := c.ProveContext(expired, simpleProgram(), []uint32{1, 2}, zkvm.ProveOptions{Checks: 4}); !errors.Is(err, ErrRemote) {
		t.Fatalf("expired deadline: got %v", err)
	}
	if elapsed := time.Since(t0); elapsed >= c.Backoff {
		t.Fatalf("expired deadline still ran the backoff loop (%v elapsed)", elapsed)
	}
}

// TestClientDoesNotRetrySemanticFailures: 4xx responses (guest aborts,
// malformed requests) are permanent — exactly one attempt.
func TestClientDoesNotRetrySemanticFailures(t *testing.T) {
	real := WorkerHandler(nil)
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, ts.Client())
	c.Backoff = time.Millisecond
	a := zkvm.NewAssembler()
	a.HaltCode(3) // guest aborts -> 422
	if _, err := c.Prove(a.MustAssemble(), nil, zkvm.ProveOptions{Checks: 4}); err == nil {
		t.Fatal("aborted guest produced a receipt")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("semantic failure retried: %d attempts", got)
	}
}
