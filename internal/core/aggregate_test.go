package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zkflow/internal/guest"
	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/obs"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
	"zkflow/internal/vmtree"
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

// committedResults returns the rounds a batch committed, in order: its
// results without the failed epochs' nils.
func committedResults(results []*AggregationResult) []*AggregationResult {
	return slices.DeleteFunc(slices.Clone(results), func(res *AggregationResult) bool { return res == nil })
}

// TestAggregateEpochsMatchesSequential pins the batch contract: six
// epochs through one AggregateEpochs call and through a twin prover
// that makes one AggregateEpoch call per epoch give the same committed
// chain, journal for journal, and the same failures — epoch 2 tampered
// after its commitment was published (a guest abort) and a backend that
// fails epoch 4 — at every crew width, with one segment and with many.
// Each failure leaves the chain where it was, so the epochs after it
// still prove, and both chains verify in order. Every seal the batch
// throws away is counted: the backend runs once per epoch plus once per
// core.agg_discarded.
func TestAggregateEpochsMatchesSequential(t *testing.T) {
	const epochs = 6
	tamper := []netflow.Record{{Key: netflow.FlowKey{SrcIP: 0xbad}, Packets: 1, StartUnix: 1, EndUnix: 2}}
	for _, segmentCycles := range []int{0, 1 << 12} {
		for _, procs := range []int{1, 2, 3, 4, 7} {
			t.Run(fmt.Sprintf("segment-cycles=%d/procs=%d", segmentCycles, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				var calls atomic.Int64
				failEpoch4 := func(prog *zkvm.Program, input []uint32, po zkvm.ProveOptions) (zkvm.AnyReceipt, error) {
					calls.Add(1)
					if input[epochWord] == 4 {
						return nil, errors.New("backend down")
					}
					return zkvm.ProveAny(prog, input, po)
				}
				setup := func(reg *obs.Registry) (*Prover, *Verifier) {
					p, v := pipelineWithOpts(t, 18, epochs, 10, Options{Checks: 4, SegmentCycles: segmentCycles, Prove: failEpoch4, Metrics: reg})
					p.store.Append(2, 0, tamper)
					return p, v
				}
				wantFailure := func(epoch int, err error) {
					t.Helper()
					var abort *zkvm.GuestAbortError
					switch {
					case err == nil || !strings.Contains(err.Error(), fmt.Sprintf("epoch %d", epoch)):
						t.Fatalf("epoch %d: got %v, want a failure naming the epoch", epoch, err)
					case epoch == 2 && !errors.As(err, &abort):
						t.Fatalf("epoch 2: got %v, want a guest abort", err)
					case epoch == 4 && !strings.Contains(err.Error(), "backend down"):
						t.Fatalf("epoch 4: got %v, want the backend's error", err)
					}
				}

				seq, seqV := setup(nil)
				var twin []*AggregationResult
				for e := range epochs {
					res, err := seq.AggregateEpoch(uint64(e))
					if e == 2 || e == 4 {
						wantFailure(e, err)
					} else if err != nil {
						t.Fatalf("sequential epoch %d: %v", e, err)
					} else {
						twin = append(twin, res)
					}
				}

				reg := obs.NewRegistry()
				batch, batchV := setup(reg)
				calls.Store(0)
				results, err := batch.AggregateEpochs([]uint64{0, 1, 2, 3, 4, 5})
				joined, ok := err.(interface{ Unwrap() []error })
				if !ok || len(joined.Unwrap()) != 2 {
					t.Fatalf("batch error %v, want the two failures joined", err)
				}
				wantFailure(2, joined.Unwrap()[0])
				wantFailure(4, joined.Unwrap()[1])
				var abort *zkvm.GuestAbortError
				if !errors.As(err, &abort) {
					t.Fatalf("errors.As finds no guest abort in %v", err)
				}
				if results[2] != nil || results[4] != nil {
					t.Fatal("a failed epoch has a result")
				}
				if d := reg.Counter("core.agg_discarded").Value(); calls.Load() != epochs+int64(d) {
					t.Fatalf("%d backend calls for %d epochs and %d discarded seals", calls.Load(), epochs, d)
				}

				committed := committedResults(results)
				if len(committed) != 4 || len(twin) != 4 || batch.Round() != 4 || seq.Round() != 4 {
					t.Fatalf("committed %d (%d) rounds in a batch and %d (%d) one by one, want 4",
						len(committed), batch.Round(), len(twin), seq.Round())
				}
				for i, res := range committed {
					if res.Epoch != twin[i].Epoch || res != results[res.Epoch] {
						t.Fatalf("round %d: batch committed epoch %d, twin %d", i, res.Epoch, twin[i].Epoch)
					}
					if !slices.Equal(res.Receipt.JournalWords(), twin[i].Receipt.JournalWords()) {
						t.Fatalf("round %d: batch journal differs from the twin's", i)
					}
					if segmentCycles > 0 && res.Receipt.(*zkvm.Receipt).NumSegments() < 2 {
						t.Fatalf("round %d: one segment, want a continuation chain", i)
					}
					if _, err := batchV.VerifyAggregation(res.Receipt); err != nil {
						t.Fatalf("verify batch round %d: %v", i, err)
					}
					if _, err := seqV.VerifyAggregation(twin[i].Receipt); err != nil {
						t.Fatalf("verify twin round %d: %v", i, err)
					}
				}
			})
		}
	}
}

// TestSchedulerChainMatchesSerial runs the same workload through
// AggregateEpoch one epoch at a time and through one AggregateEpochs
// batch at one and three workers: journals must be identical round for
// round, and each batched chain must verify end to end.
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
	for _, procs := range []int{1, 3} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			batchProver, v := pipelineWithOpts(t, 11, epochs, 8, Options{Checks: 6})
			batch, err := batchProver.AggregateEpochs([]uint64{0, 1, 2, 3})
			if err != nil {
				t.Fatalf("procs %d: %v", procs, err)
			}
			if len(batch) != epochs {
				t.Fatalf("procs %d: got %d results", procs, len(batch))
			}
			for i, res := range batch {
				if res == nil {
					t.Fatalf("procs %d: round %d missing", procs, i)
				}
				if res.Epoch != serial[i].Epoch {
					t.Fatalf("procs %d: round %d: epoch %d vs %d", procs, i, res.Epoch, serial[i].Epoch)
				}
				// The journal binds the whole chain: prev hash, roots, epoch,
				// commitments. Identical journals mean an identical chain.
				if !slices.Equal(res.Receipt.JournalWords(), serial[i].Receipt.JournalWords()) {
					t.Fatalf("procs %d: round %d: batch journal differs from serial", procs, i)
				}
				if _, err := v.VerifyAggregation(res.Receipt); err != nil {
					t.Fatalf("procs %d: verify batch round %d: %v", procs, i, err)
				}
			}
			if batchProver.Round() != epochs {
				t.Fatalf("procs %d: prover committed %d rounds", procs, batchProver.Round())
			}
		}()
	}
}

// TestSchedulerTamperAborts tampers epoch 1 of 3: the batch must fail
// epoch 1 with a GuestAbortError and leave the chain where it was, so
// epoch 2 proves on top of epoch 0 and the committed chain (epochs 0
// and 2) verifies in order.
func TestSchedulerTamperAborts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3)) // one window of three
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: 13, NumFlows: 32, Routers: 2}, st, lg)
	if err := sim.RunEpochs(context.Background(), 0, 3, 6); err != nil {
		t.Fatal(err)
	}
	// Tamper epoch 1 after its commitment was published.
	st.Append(1, 0, []netflow.Record{{Key: netflow.FlowKey{SrcIP: 0xbad}, Packets: 1, StartUnix: 1, EndUnix: 2}})
	p := NewProver(st, lg, Options{Checks: 4})

	results, err := p.AggregateEpochs([]uint64{0, 1, 2})
	if err == nil {
		t.Fatal("tampered batch reported success")
	}
	var abort *zkvm.GuestAbortError
	if !errors.As(err, &abort) {
		t.Fatalf("want GuestAbortError, got %v", err)
	}
	if results[0] == nil || results[1] != nil || results[2] == nil {
		t.Fatalf("results: %v", results)
	}
	if p.Round() != 2 {
		t.Fatalf("committed %d rounds after abort, want 2", p.Round())
	}
	if results[2].Journal.PrevRoot != results[0].Journal.NewRoot {
		t.Fatal("epoch 2 is not chained to epoch 0")
	}
	v := NewVerifier(lg)
	for _, res := range committedResults(results) {
		if _, err := v.VerifyAggregation(res.Receipt); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSchedulerStopsSealingAfterAFailedSeal: once a seal has failed, no
// seal stacked on it commits. At four workers epoch 1 fails in window
// {0, 1, 2, 3}; the seals of epochs 2 and 3 were witnessed on top of it,
// so both are discarded and counted, and the two epochs are sealed
// again on the committed chain: 8 epochs cost exactly 10 backend calls,
// and every epoch but 1 commits.
func TestSchedulerStopsSealingAfterAFailedSeal(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var calls atomic.Int32
	failEpoch1 := func(prog *zkvm.Program, input []uint32, po zkvm.ProveOptions) (zkvm.AnyReceipt, error) {
		calls.Add(1)
		if input[epochWord] == 1 {
			return nil, errors.New("backend down")
		}
		return zkvm.ProveAny(prog, input, po)
	}
	reg := obs.NewRegistry()
	p, v := pipelineWithOpts(t, 15, 8, 4, Options{Checks: 4, Prove: failEpoch1, Metrics: reg})
	results, err := p.AggregateEpochs([]uint64{0, 1, 2, 3, 4, 5, 6, 7})
	if err == nil || !strings.Contains(err.Error(), "backend down") {
		t.Fatalf("got %v, want epoch 1's seal error", err)
	}
	for e, res := range results {
		if (res == nil) != (e == 1) {
			t.Fatalf("epoch %d: result %v", e, res)
		}
	}
	if d := reg.Counter("core.agg_discarded").Value(); d != 2 {
		t.Fatalf("%d seals discarded, want 2", d)
	}
	if n := calls.Load(); n != 10 {
		t.Fatalf("backend called %d times, want 10", n)
	}
	if p.Round() != 7 {
		t.Fatalf("committed %d rounds, want 7", p.Round())
	}
	for _, res := range committedResults(results) {
		if _, err := v.VerifyAggregation(res.Receipt); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSchedulerQueriesSeeCommittedState: a Query that runs while a
// batch holds a seal mid-batch proves against the last committed root,
// and that proof verifies against a verifier holding the committed
// rounds.
func TestSchedulerQueriesSeeCommittedState(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // windows {0, 1} and {2}
	agg := guest.AggregationProgram().ID()
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	holdEpoch2 := func(prog *zkvm.Program, input []uint32, po zkvm.ProveOptions) (zkvm.AnyReceipt, error) {
		if prog.ID() == agg && input[epochWord] == 2 {
			close(held)
			<-release
		}
		return zkvm.ProveAny(prog, input, po)
	}
	p, v := pipelineWithOpts(t, 14, 3, 6, Options{Checks: 4, Prove: holdEpoch2})
	var results []*AggregationResult
	done := make(chan error, 1)
	go func() {
		var err error
		results, err = p.AggregateEpochs([]uint64{0, 1, 2})
		done <- err
	}()

	<-held
	if n := p.Round(); n != 2 {
		t.Fatalf("%d rounds committed while epoch 2 seals, want 2", n)
	}
	qr, err := p.Query("SELECT COUNT(*) FROM clogs")
	unblock()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	committed := results[:2]
	if qr.Journal.Root != committed[1].Journal.NewRoot {
		t.Fatal("mid-batch query did not prove against the last committed root")
	}
	for _, res := range committed {
		if _, err := v.VerifyAggregation(res.Receipt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.VerifyQuery(qr.SQL, qr.Receipt); err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyAggregation(results[2].Receipt); err != nil {
		t.Fatal(err)
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
// goroutines run one after the other — neither fails because the
// other is proving.
func TestConcurrentAggregateEpochSerialises(t *testing.T) {
	p, v := pipelineWithOpts(t, 17, 2, 6, Options{Checks: 4})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	results := make([]*AggregationResult, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = p.AggregateEpoch(uint64(i))
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
	// The calls may commit in either order; each extends the chain, so
	// the one chained to genesis came first.
	if results[1].Journal.PrevJournalHash == (vmtree.Digest{}) {
		results[0], results[1] = results[1], results[0]
	}
	for _, res := range results {
		if _, err := v.VerifyAggregation(res.Receipt); err != nil {
			t.Fatal(err)
		}
	}
}

// TestProverKeepsNoOldRound: the prover keeps the chain tip, not the
// rounds behind it. Once the caller drops round 0's result, nothing in
// the prover holds round 0's receipt, so a collection frees it — while
// rounds 1 and 2 still chain to it and verify.
func TestProverKeepsNoOldRound(t *testing.T) {
	p, v := pipelineWithOpts(t, 19, 3, 6, Options{Checks: 4})
	first, err := p.AggregateEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyAggregation(first.Receipt); err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(first.Receipt.(*zkvm.Receipt), func(*zkvm.Receipt) { close(freed) })
	first = nil

	results, err := p.AggregateEpochs([]uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if _, err := v.VerifyAggregation(res.Receipt); err != nil {
			t.Fatal(err)
		}
	}
	collected := false
	for i := 0; i < 20 && !collected; i++ {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-time.After(50 * time.Millisecond):
		}
	}
	if !collected {
		t.Fatal("round 0's receipt is still reachable after its result was dropped")
	}
	// The prover stays live across the collections above.
	if p.Round() != 3 {
		t.Fatalf("Round() = %d, want 3", p.Round())
	}
}
