package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
	"zkflow/internal/zkvm"
)

// epochWord is where the aggregation tape and journal carry the epoch:
// after the previous journal hash and the previous root.
const epochWord = 16

// pipelineWithOpts is like pipeline but with custom prover options.
func pipelineWithOpts(t *testing.T, seed int64, epochs, recordsPerRouter int, opts Options) (*Prover, *Verifier) {
	t.Helper()
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: seed, NumFlows: 48, Routers: 4, LossRate: 0.02}, st, lg)
	if err := sim.RunEpochs(context.Background(), 0, epochs, recordsPerRouter); err != nil {
		t.Fatal(err)
	}
	return NewProver(st, lg, opts), NewVerifier(lg)
}

// TestSchedulerChainMatchesSerial runs the same workload through
// AggregateEpoch one epoch at a time and through pipelines of depth 1
// and 3: journals must be identical round for round, and each
// pipelined chain must verify end to end.
func TestSchedulerChainMatchesSerial(t *testing.T) {
	const epochs = 4
	serialProver, _ := pipelineWithOpts(t, 11, epochs, 8, Options{Checks: 6})
	var serial []*AggregationResult
	for e := uint64(0); e < epochs; e++ {
		res, err := serialProver.AggregateEpoch(e)
		if err != nil {
			t.Fatalf("serial epoch %d: %v", e, err)
		}
		serial = append(serial, res)
	}
	for _, depth := range []int{1, 3} {
		pipedProver, v := pipelineWithOpts(t, 11, epochs, 8, Options{Checks: 6})
		piped, err := pipedProver.AggregateEpochs([]uint64{0, 1, 2, 3}, depth)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if len(piped) != epochs {
			t.Fatalf("depth %d: got %d results", depth, len(piped))
		}
		for i, res := range piped {
			if res == nil {
				t.Fatalf("depth %d: round %d missing", depth, i)
			}
			if res.Epoch != serial[i].Epoch {
				t.Fatalf("depth %d: round %d: epoch %d vs %d", depth, i, res.Epoch, serial[i].Epoch)
			}
			// The journal binds the whole chain: prev hash, roots, epoch,
			// commitments. Identical journals mean an identical chain.
			if !slices.Equal(res.Receipt.JournalWords(), serial[i].Receipt.JournalWords()) {
				t.Fatalf("depth %d: round %d: pipelined journal differs from serial", depth, i)
			}
			if _, err := v.VerifyAggregation(res.Receipt); err != nil {
				t.Fatalf("depth %d: verify pipelined round %d: %v", depth, i, err)
			}
		}
		if pipedProver.Round() != epochs {
			t.Fatalf("depth %d: prover committed %d rounds", depth, pipedProver.Round())
		}
	}
}

// TestSchedulerBlocksDirectAggregation asserts the ownership guard.
func TestSchedulerBlocksDirectAggregation(t *testing.T) {
	p, _ := pipelineWithOpts(t, 12, 1, 4, Options{Checks: 4})
	s, err := NewScheduler(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AggregateEpoch(0); !errors.Is(err, ErrPipelineActive) {
		t.Fatalf("got %v", err)
	}
	if _, err := NewScheduler(p, 2); !errors.Is(err, ErrPipelineActive) {
		t.Fatalf("second scheduler: %v", err)
	}
	go func() {
		for range s.Results() {
		}
	}()
	s.Close()
	// Released: direct aggregation works again.
	if _, err := p.AggregateEpoch(0); err != nil {
		t.Fatalf("after close: %v", err)
	}
}

// TestSchedulerTamperAborts tampers epoch 1 of 3: the pipeline must
// fail epoch 1 with a GuestAbortError, discard epoch 2, and leave the
// prover's committed chain at exactly one round (epoch 0).
func TestSchedulerTamperAborts(t *testing.T) {
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: 13, NumFlows: 32, Routers: 2}, st, lg)
	if err := sim.RunEpochs(context.Background(), 0, 3, 6); err != nil {
		t.Fatal(err)
	}
	// Tamper epoch 1 after its commitment was published.
	st.Append(1, 0, []netflow.Record{{Key: netflow.FlowKey{SrcIP: 0xbad}, Packets: 1, StartUnix: 1, EndUnix: 2}})
	p := NewProver(st, lg, Options{Checks: 4})

	results, err := p.AggregateEpochs([]uint64{0, 1, 2}, 1)
	if err == nil {
		t.Fatal("tampered pipeline reported success")
	}
	var abort *zkvm.GuestAbortError
	if !errors.As(err, &abort) {
		t.Fatalf("want GuestAbortError, got %v", err)
	}
	if results[0] == nil || results[1] != nil || results[2] != nil {
		t.Fatalf("results: %v", results)
	}
	if p.Round() != 1 {
		t.Fatalf("committed %d rounds after abort", p.Round())
	}
	// The committed prefix still verifies.
	v := NewVerifier(lg)
	if _, err := v.VerifyAggregation(results[0].Receipt); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerQueriesSeeCommittedState runs a query mid-pipeline and
// checks it proves against a committed root (verifiable once the
// verifier has advanced that far).
func TestSchedulerQueriesSeeCommittedState(t *testing.T) {
	p, v := pipelineWithOpts(t, 14, 2, 6, Options{Checks: 4})
	results, err := p.AggregateEpochs([]uint64{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if _, err := v.VerifyAggregation(res.Receipt); err != nil {
			t.Fatal(err)
		}
	}
	qr, err := p.Query("SELECT COUNT(*) FROM clogs")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyQuery(qr.SQL, qr.Receipt); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerStopsSealingAfterAFailedSeal: once a seal has failed,
// every later epoch is discarded, so no new seal may start for one.
// At depth 2 only the seals already in flight when epoch 1 fails can
// still run: at most epochs 0-3 of 8 reach the backend.
func TestSchedulerStopsSealingAfterAFailedSeal(t *testing.T) {
	var calls atomic.Int32
	failEpoch1 := func(prog *zkvm.Program, input []uint32, po zkvm.ProveOptions) (zkvm.AnyReceipt, error) {
		calls.Add(1)
		if input[epochWord] == 1 {
			return nil, errors.New("backend down")
		}
		return zkvm.ProveAny(prog, input, po)
	}
	p, _ := pipelineWithOpts(t, 15, 8, 4, Options{Checks: 4, Prove: failEpoch1})
	results, err := p.AggregateEpochs([]uint64{0, 1, 2, 3, 4, 5, 6, 7}, 2)
	if err == nil || !strings.Contains(err.Error(), "backend down") {
		t.Fatalf("got %v, want epoch 1's seal error", err)
	}
	for i, res := range results[1:] {
		if res != nil {
			t.Fatalf("epoch %d committed after epoch 1 failed", i+1)
		}
	}
	if n := calls.Load(); n > 4 {
		t.Fatalf("backend called %d times, want at most 4", n)
	}
	if p.Round() != 1 {
		t.Fatalf("committed %d rounds, want 1", p.Round())
	}
}

// TestAggregateEpochRefusesALyingBackend: a backend that proves the
// right tape with the epoch word changed returns a valid receipt whose
// journal has the right NewRoot and the wrong epoch. The commit stage
// checks the whole journal, so the round is refused and not appended.
func TestAggregateEpochRefusesALyingBackend(t *testing.T) {
	wrongEpoch := func(prog *zkvm.Program, input []uint32, po zkvm.ProveOptions) (zkvm.AnyReceipt, error) {
		forged := slices.Clone(input)
		forged[epochWord]++
		return zkvm.ProveAny(prog, forged, po)
	}
	p, _ := pipelineWithOpts(t, 16, 1, 6, Options{Checks: 4, Prove: wrongEpoch})
	if _, err := p.AggregateEpoch(0); err == nil || !strings.Contains(err.Error(), "reference journal") {
		t.Fatalf("got %v, want a journal mismatch", err)
	}
	if p.Round() != 0 {
		t.Fatalf("committed %d rounds, want 0", p.Round())
	}
}

// TestConcurrentAggregateEpochSerialises: AggregateEpoch calls from two
// goroutines run one after the other — neither sees the other's
// depth-1 Scheduler as ErrPipelineActive.
func TestConcurrentAggregateEpochSerialises(t *testing.T) {
	p, v := pipelineWithOpts(t, 17, 2, 6, Options{Checks: 4})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = p.AggregateEpoch(uint64(i))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if p.Round() != 2 {
		t.Fatalf("Round() = %d, want 2", p.Round())
	}
	// The calls may commit in either order; each extends the chain.
	for _, res := range p.History() {
		if _, err := v.VerifyAggregation(res.Receipt); err != nil {
			t.Fatal(err)
		}
	}
}
