package remote

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"zkflow/internal/core"
	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/obs"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
	"zkflow/internal/zkvm"
)

// loopProgram builds a guest whose run splits into several segments at
// the minimum segment size.
func loopProgram() (*zkvm.Program, []uint32) {
	a := zkvm.NewAssembler()
	a.ReadInput(2) // r2 = loop count
	a.Li(3, 0)
	a.Li(4, 0)
	a.Label("loop")
	a.Add(4, 4, 3)
	a.Sw(4, 3, 0)
	a.Addi(3, 3, 1)
	a.Bltu(3, 2, "loop")
	a.WriteJournal(4)
	a.HaltCode(0)
	return a.MustAssemble(), []uint32{60}
}

func farmOpts() zkvm.ProveOptions {
	return zkvm.ProveOptions{Checks: 4, SegmentCycles: 64}
}

// localComposite is the single prover's composite for a segmented run.
func localComposite(t *testing.T, prog *zkvm.Program, input []uint32, opts zkvm.ProveOptions, seed [32]byte) *zkvm.Receipt {
	t.Helper()
	r, err := zkvm.ProveSeeded(prog, input, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// testFarm starts a coordinator with a fast heartbeat on a loopback
// listener.
func testFarm(t *testing.T, reg *obs.Registry) *Coordinator {
	t.Helper()
	c := NewCoordinator(FarmConfig{
		HeartbeatEvery: 25 * time.Millisecond,
		Metrics:        reg,
	})
	if err := c.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// startWorker runs a worker in the background, returning a cancel
// function and a WaitGroup-style done channel.
func startWorker(t *testing.T, addr string, cfg WorkerConfig) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunWorker(ctx, addr, cfg)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("worker did not shut down")
		}
	})
	return cancel
}

func waitWorkers(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.WaitForWorkers(ctx, n); err != nil {
		t.Fatal(err)
	}
}

func TestFarmWholeJobByteIdentical(t *testing.T) {
	c := testFarm(t, nil)
	startWorker(t, c.Addr(), WorkerConfig{Name: "w1", Capacity: 2})
	waitWorkers(t, c, 1)

	prog, input := loopProgram()
	opts := zkvm.ProveOptions{Checks: 4}
	seed := [32]byte{3, 1, 4}
	got, err := c.ProveSeeded(context.Background(), prog, input, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := zkvm.ProveSeeded(prog, input, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := got.MarshalBinary()
	wb, _ := want.MarshalBinary()
	if !bytes.Equal(gb, wb) {
		t.Fatal("farm whole-job receipt differs from local prover")
	}
}

// TestFarmOfOneIsTheOffPathProver: one worker behind the coordinator is
// the paper's off-path prover. What it cannot prove surfaces as its
// error and no receipt; what it returns is checked before anyone else
// sees it.
func TestFarmOfOneIsTheOffPathProver(t *testing.T) {
	abort := zkvm.NewAssembler()
	abort.HaltCode(3)
	trap := zkvm.NewAssembler()
	trap.ReadInput(zkvm.R2) // no input: traps
	trap.HaltCode(0)
	// A worker that proves some other program, one whose receipt lost a
	// bit on the way, one that answers segment job i with segment i+1,
	// and one that seals with a single sampled check whatever the
	// request asked for: all produce well-formed results.
	otherImage := func(_ context.Context, job *WorkerJob) ([]byte, error) {
		prog, input := loopProgram()
		r, err := zkvm.ProveSeeded(prog, input, job.Opts, job.Seed)
		if err != nil {
			return nil, err
		}
		return r.MarshalBinary()
	}
	flippedSeal := func(_ context.Context, job *WorkerJob) ([]byte, error) {
		r, err := zkvm.ProveSeeded(job.Prog, job.Input, job.Opts, job.Seed)
		if err != nil {
			return nil, err
		}
		r.Segments[0].Seal.ExecRoot[0] ^= 1
		return r.MarshalBinary()
	}
	nextSegment := func(_ context.Context, job *WorkerJob) ([]byte, error) {
		run, err := zkvm.NewSegmentRun(job.Prog, job.Input, job.Opts, job.Seed)
		if err != nil {
			return nil, err
		}
		defer run.Release()
		sr, err := run.ProveSegment((job.SegIndex + 1) % run.Segments())
		if err != nil {
			return nil, err
		}
		return (&zkvm.Receipt{Segments: []*zkvm.SegmentReceipt{sr}}).MarshalBinary()
	}
	oneCheck := func(_ context.Context, job *WorkerJob) ([]byte, error) {
		opts := job.Opts
		opts.Checks = 1
		r, err := zkvm.ProveSeeded(job.Prog, job.Input, opts, job.Seed)
		if err != nil {
			return nil, err
		}
		return r.MarshalBinary()
	}
	loop, loopInput := loopProgram()
	for _, tc := range []struct {
		name    string
		prog    *zkvm.Program
		input   []uint32
		opts    zkvm.ProveOptions
		prove   ProveJobFunc // nil = the worker's own prover
		wantErr string       // "" = a receipt that verifies
	}{
		{name: "whole job", prog: simpleProgram(), input: []uint32{20, 22}, opts: zkvm.ProveOptions{Checks: 6}},
		{name: "guest abort", prog: abort.MustAssemble(), opts: zkvm.ProveOptions{Checks: 4}, wantErr: "exit code 3"},
		{name: "guest trap", prog: trap.MustAssemble(), opts: zkvm.ProveOptions{Checks: 4}, wantErr: "worker w1"},
		// SegmentCycles is a raw uint32 of the job frame. The largest one
		// over a five-instruction guest must cost the worker a five-row
		// trace, not a slab sized by the cut.
		{name: "hostile SegmentCycles", prog: simpleProgram(), input: []uint32{20, 22},
			opts: zkvm.ProveOptions{Checks: 6, SegmentCycles: math.MaxUint32}},
		{name: "receipt for another image", prog: simpleProgram(), input: []uint32{20, 22},
			opts: zkvm.ProveOptions{Checks: 6}, prove: otherImage, wantErr: "receipt for image"},
		{name: "flipped seal byte", prog: simpleProgram(), input: []uint32{20, 22},
			opts: zkvm.ProveOptions{Checks: 6}, prove: flippedSeal, wantErr: "receipt invalid"},
		{name: "segment i+1 for job i", prog: loop, input: loopInput,
			opts: farmOpts(), prove: nextSegment, wantErr: "receipt invalid"},
		{name: "fewer checks than asked", prog: simpleProgram(), input: []uint32{20, 22},
			opts: zkvm.ProveOptions{Checks: 6}, prove: oneCheck, wantErr: "receipt invalid"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testFarm(t, nil)
			startWorker(t, c.Addr(), WorkerConfig{Name: "w1", Prove: tc.prove})
			waitWorkers(t, c, 1)
			receipt, err := c.Prove(tc.prog, tc.input, tc.opts)
			if tc.wantErr != "" {
				if receipt != nil || !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("got receipt %v, error %v; want no receipt and ErrRemote mentioning %q", receipt, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := zkvm.VerifyAny(tc.prog, receipt, zkvm.VerifyOptions{}); err != nil {
				t.Fatal(err)
			}
			if receipt.JournalWords()[0] != 42 {
				t.Fatalf("journal %v", receipt.JournalWords())
			}
		})
	}
}

// TestFarmOfOneAggregationPipeline is the full §7 scenario: the
// operator's prover dispatches all proving to one off-path worker and
// the auditor notices nothing — except that tampered telemetry still
// fails to prove, and the chain goes on from the last honest round.
// One-epoch calls and a batch both reach the farm: one dispatched job
// per epoch proved.
func TestFarmOfOneAggregationPipeline(t *testing.T) {
	for _, tc := range []struct {
		name      string
		aggregate func(p *core.Prover, epochs []uint64) ([]*core.AggregationResult, error)
	}{
		{"serial", func(p *core.Prover, epochs []uint64) ([]*core.AggregationResult, error) {
			var out []*core.AggregationResult
			for _, e := range epochs {
				res, err := p.AggregateEpoch(e)
				if err != nil {
					return out, err
				}
				out = append(out, res)
			}
			return out, nil
		}},
		{"batch", func(p *core.Prover, epochs []uint64) ([]*core.AggregationResult, error) {
			return p.AggregateEpochs(epochs)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			c := testFarm(t, reg)
			startWorker(t, c.Addr(), WorkerConfig{})
			waitWorkers(t, c, 1)

			st := store.Open(0)
			lg := ledger.New()
			sim := router.NewSim(trafficgen.Config{Seed: 9, NumFlows: 24, Routers: 2}, st, lg)
			if err := sim.RunEpochs(context.Background(), 0, 5, 8); err != nil {
				t.Fatal(err)
			}
			st.Append(3, 0, []netflow.Record{{Key: netflow.FlowKey{SrcIP: 1}, Packets: 1, StartUnix: 1, EndUnix: 2}})
			prover := core.NewProver(st, lg, core.Options{Checks: 6, Prove: c.Prove})
			verifier := core.NewVerifier(lg)
			results, err := tc.aggregate(prover, []uint64{0, 1, 2})
			if err != nil {
				t.Fatalf("off-path aggregation: %v", err)
			}
			if n := reg.Counter("farm.jobs_dispatched").Value(); n != 3 {
				t.Fatalf("%d jobs dispatched for 3 epochs proved", n)
			}
			if _, err := prover.AggregateEpoch(3); err == nil {
				t.Fatal("tampered store proven off-path")
			}
			res, err := prover.AggregateEpoch(4)
			if err != nil {
				t.Fatalf("off-path aggregate after the tampered epoch: %v", err)
			}
			for _, res := range append(results, res) {
				if _, err := verifier.VerifyAggregation(res.Receipt); err != nil {
					t.Fatalf("verify epoch %d: %v", res.Epoch, err)
				}
			}
			qr, err := prover.Query("SELECT SUM(packets) FROM clogs;")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := verifier.VerifyQuery(qr.SQL, qr.Receipt); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFarmWorkerMetersItsJobs: a worker's registry is the only place its
// operator can see what it did.
func TestFarmWorkerMetersItsJobs(t *testing.T) {
	c := testFarm(t, nil)
	reg := obs.NewRegistry()
	startWorker(t, c.Addr(), WorkerConfig{Metrics: reg})
	waitWorkers(t, c, 1)
	if _, err := c.Prove(simpleProgram(), []uint32{20, 22}, zkvm.ProveOptions{Checks: 6}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["farmworker.jobs"]; got != 1 {
		t.Fatalf("farmworker.jobs = %d, want 1", got)
	}
	if got := snap.Histograms["prover.stage.seal_seconds"].Count; got != 1 {
		t.Fatalf("%d prover.stage.seal observations, want 1", got)
	}
}

// TestRunCacheReleasesOneSegmentRuns: a worker keeps a cut run's
// execution for its sibling segment jobs, but releases a one-segment
// run as soon as its only job is sealed.
func TestRunCacheReleasesOneSegmentRuns(t *testing.T) {
	cache := newRunCache()
	prove := defaultProveJob(cache, nil)
	prog, input := loopProgram()
	for _, tc := range []struct {
		opts zkvm.ProveOptions
		want int
	}{
		{zkvm.ProveOptions{Checks: 4}, 0},
		{farmOpts(), 1},
	} {
		job := &WorkerJob{Prog: prog, Input: input, Opts: tc.opts, Seed: [32]byte{7}}
		if _, err := prove(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		if got := len(cache.entries); got != tc.want {
			t.Fatalf("SegmentCycles %d: %d cached runs after the job, want %d", tc.opts.SegmentCycles, got, tc.want)
		}
		cache.drain()
	}
}

func TestFarmSegmentedByteIdenticalAtAnyWorkerCount(t *testing.T) {
	prog, input := loopProgram()
	opts := farmOpts()
	seed := [32]byte{7, 7, 7}
	golden := localComposite(t, prog, input, opts, seed)
	if golden.NumSegments() < 2 {
		t.Fatalf("want >=2 segments, got %d", golden.NumSegments())
	}
	wantBytes, _ := golden.MarshalBinary()

	for _, workers := range []int{1, 2, 4} {
		reg := obs.NewRegistry()
		c := testFarm(t, reg)
		for i := 0; i < workers; i++ {
			startWorker(t, c.Addr(), WorkerConfig{Capacity: 1})
		}
		waitWorkers(t, c, workers)
		got, err := c.ProveSeeded(context.Background(), prog, input, opts, seed)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		gb, _ := got.MarshalBinary()
		if !bytes.Equal(gb, wantBytes) {
			t.Fatalf("workers=%d: farm composite differs from single-prover bytes", workers)
		}
		if n := reg.Counter("farm.results_ok").Value(); n != uint64(golden.NumSegments()) {
			t.Fatalf("workers=%d: %d results accepted, want %d", workers, n, golden.NumSegments())
		}
		c.Close()
	}
}

// TestFarmProveSegmentedVerifies: Prove, the core.ProveFunc, draws its
// own seed and returns a composite that verifies.
func TestFarmProveSegmentedVerifies(t *testing.T) {
	c := testFarm(t, nil)
	startWorker(t, c.Addr(), WorkerConfig{Capacity: 2})
	waitWorkers(t, c, 1)

	prog, input := loopProgram()
	receipt, err := c.Prove(prog, input, farmOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := zkvm.VerifyAny(prog, receipt, zkvm.VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	if receipt.JournalWords()[0] != 1770 { // sum 0..59
		t.Fatalf("journal %v", receipt.JournalWords())
	}
}

func TestFarmGuestAbortSurfacesBeforeDispatch(t *testing.T) {
	reg := obs.NewRegistry()
	c := testFarm(t, reg)
	startWorker(t, c.Addr(), WorkerConfig{Capacity: 1})
	waitWorkers(t, c, 1)

	a := zkvm.NewAssembler()
	a.HaltCode(3)
	prog := a.MustAssemble()
	_, err := c.ProveSeeded(context.Background(), prog, nil, farmOpts(), [32]byte{1})
	var abort *zkvm.GuestAbortError
	if !errors.As(err, &abort) || abort.ExitCode != 3 {
		t.Fatalf("want GuestAbortError(3), got %v", err)
	}
	// The abort was caught at planning: no proving job ever dispatched.
	if n := reg.Counter("farm.jobs_dispatched").Value(); n != 0 {
		t.Fatalf("%d jobs dispatched for an aborting guest", n)
	}
}

func TestFarmCancelledContextUnblocks(t *testing.T) {
	c := testFarm(t, nil)
	// No workers: the job would queue forever.
	prog, input := loopProgram()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.ProveSeeded(ctx, prog, input, farmOpts(), [32]byte{1})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestFarmCloseFailsPendingJobs(t *testing.T) {
	c := testFarm(t, nil)
	prog, input := loopProgram()
	var wg sync.WaitGroup
	wg.Add(1)
	errCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := c.ProveSeeded(context.Background(), prog, input, farmOpts(), [32]byte{1})
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	wg.Wait()
	if err := <-errCh; !errors.Is(err, ErrFarmClosed) {
		t.Fatalf("want ErrFarmClosed, got %v", err)
	}
}

// TestFarmCapacityAwareDispatchAndSteals: segments queued while only a
// wedged worker is registered are taken by a larger worker that joins
// later, and the segment the wedged worker holds is requeued to it when
// the wedged worker dies. The composite is the single prover's bytes.
func TestFarmCapacityAwareDispatchAndSteals(t *testing.T) {
	reg := obs.NewRegistry()
	c := testFarm(t, reg)
	blocked := make(chan struct{})
	var once sync.Once
	slowProve := func(ctx context.Context, job *WorkerJob) ([]byte, error) {
		once.Do(func() { close(blocked) })
		<-ctx.Done() // never finishes
		return nil, ctx.Err()
	}
	cancelSlow := startWorker(t, c.Addr(), WorkerConfig{Name: "slow", Capacity: 1, Prove: slowProve})
	waitWorkers(t, c, 1)

	prog, input := loopProgram()
	opts := farmOpts()
	seed := [32]byte{2}
	golden := localComposite(t, prog, input, opts, seed)
	resCh := make(chan error, 1)
	var farmBytes []byte
	go func() {
		r, err := c.ProveSeeded(context.Background(), prog, input, opts, seed)
		if err == nil {
			farmBytes, _ = r.MarshalBinary()
		}
		resCh <- err
	}()
	<-blocked // slow worker has swallowed a job; the rest wait in the queue
	fastReg := obs.NewRegistry()
	startWorker(t, c.Addr(), WorkerConfig{Name: "fast", Capacity: 4, Metrics: fastReg})
	waitWorkers(t, c, 2)

	// The fast worker takes the queued segments, but the slow worker
	// holds one in-flight segment forever. Kill it — its connection
	// closes mid-job and the coordinator must requeue that segment to
	// the surviving worker.
	cancelSlow()
	if err := <-resCh; err != nil {
		t.Fatal(err)
	}
	want, _ := golden.MarshalBinary()
	if !bytes.Equal(farmBytes, want) {
		t.Fatal("farm composite differs after failover")
	}
	if got, n := fastReg.Counter("farmworker.results_ok").Value(), golden.NumSegments(); got != uint64(n) {
		t.Errorf("fast worker proved %d segments, want all %d", got, n)
	}
	if reg.Counter("farm.jobs_requeued").Value() == 0 {
		t.Error("no requeues recorded")
	}
}
