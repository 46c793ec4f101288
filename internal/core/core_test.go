package core

import (
	"context"
	"errors"
	"testing"

	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
	"zkflow/internal/zkvm"
)

// testOpts keeps proofs small for fast tests.
var testOpts = Options{Checks: 6}

// pipeline builds a full simulated deployment and runs n epochs.
func pipeline(t *testing.T, seed int64, epochs, recordsPerRouter int) (*router.Sim, *Prover, *Verifier) {
	t.Helper()
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: seed, NumFlows: 48, Routers: 4, LossRate: 0.02}, st, lg)
	if err := sim.RunEpochs(context.Background(), 0, epochs, recordsPerRouter); err != nil {
		t.Fatal(err)
	}
	return sim, NewProver(st, lg, testOpts), NewVerifier(lg)
}

func TestEndToEndPipeline(t *testing.T) {
	_, p, v := pipeline(t, 1, 3, 10)
	for epoch := uint64(0); epoch < 3; epoch++ {
		res, err := p.AggregateEpoch(epoch)
		if err != nil {
			t.Fatalf("aggregate epoch %d: %v", epoch, err)
		}
		j, err := v.VerifyAggregation(res.Receipt)
		if err != nil {
			t.Fatalf("verify epoch %d: %v", epoch, err)
		}
		if j.Epoch != uint32(epoch) {
			t.Fatalf("journal epoch %d", j.Epoch)
		}
	}
	if v.Rounds() != 3 || p.Round() != 3 {
		t.Fatalf("rounds: verifier %d, prover %d", v.Rounds(), p.Round())
	}

	// A proven query verifies against the advanced root.
	qr, err := p.Query("SELECT SUM(hop_count) FROM clogs WHERE proto = 6")
	if err != nil {
		t.Fatal(err)
	}
	j, err := v.VerifyQuery(qr.SQL, qr.Receipt)
	if err != nil {
		t.Fatal(err)
	}
	if j.Result() != qr.Result() {
		t.Fatal("verifier and prover disagree on result")
	}
}

func TestVerifierRejectsOutOfOrderRounds(t *testing.T) {
	_, p, v := pipeline(t, 2, 2, 6)
	r0, err := p.AggregateEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p.AggregateEpoch(1)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 without round 0: chain break.
	if _, err := v.VerifyAggregation(r1.Receipt); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("got %v", err)
	}
	if _, err := v.VerifyAggregation(r0.Receipt); err != nil {
		t.Fatal(err)
	}
	// Replaying round 0: also a chain break.
	if _, err := v.VerifyAggregation(r0.Receipt); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("replay accepted: %v", err)
	}
	if _, err := v.VerifyAggregation(r1.Receipt); err != nil {
		t.Fatal(err)
	}
}

func TestTamperDetectionStoreMutation(t *testing.T) {
	// Records are modified in the store AFTER the commitment was
	// published: the guest aborts and no receipt exists (§6).
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: 3, NumFlows: 16, Routers: 2}, st, lg)
	if _, err := sim.RunEpoch(context.Background(), 0, 8); err != nil {
		t.Fatal(err)
	}
	// Tamper: re-append an extra record to router 0's epoch segment.
	st.Append(0, 0, []netflow.Record{{Key: netflow.FlowKey{SrcIP: 0xbad}, Packets: 1, StartUnix: 1, EndUnix: 2}})
	p := NewProver(st, lg, testOpts)
	_, err := p.AggregateEpoch(0)
	if err == nil {
		t.Fatal("tampered store produced a receipt")
	}
	var abort *zkvm.GuestAbortError
	if !errors.As(err, &abort) {
		t.Fatalf("want GuestAbortError, got %v", err)
	}
}

func TestVerifierRejectsForgedCommitmentBinding(t *testing.T) {
	// The prover aggregates against commitments that are NOT on the
	// public ledger the verifier reads: verification must fail even
	// though the receipt itself is sound.
	st := store.Open(0)
	lgReal := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: 4, NumFlows: 16, Routers: 2}, st, lgReal)
	if _, err := sim.RunEpoch(context.Background(), 0, 6); err != nil {
		t.Fatal(err)
	}
	p := NewProver(st, lgReal, testOpts)
	res, err := p.AggregateEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	// Verifier reads a DIFFERENT ledger (e.g. the operator swapped
	// bulletin boards): commitments won't match.
	other := ledger.New()
	if _, err := other.Publish(0, 0, ledger.CommitRecords(nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Publish(1, 0, ledger.CommitRecords(nil)); err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(other)
	if _, err := v.VerifyAggregation(res.Receipt); !errors.Is(err, ErrCommitmentMismatch) {
		t.Fatalf("got %v", err)
	}
}

func TestVerifierRejectsStaleQuery(t *testing.T) {
	_, p, v := pipeline(t, 5, 2, 6)
	r0, err := p.AggregateEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyAggregation(r0.Receipt); err != nil {
		t.Fatal(err)
	}
	// Query proven against round 0's CLog...
	qr, err := p.Query("SELECT COUNT(*) FROM clogs")
	if err != nil {
		t.Fatal(err)
	}
	// ...then the aggregate advances.
	r1, err := p.AggregateEpoch(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyAggregation(r1.Receipt); err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyQuery(qr.SQL, qr.Receipt); !errors.Is(err, ErrStaleRoot) {
		t.Fatalf("stale query accepted: %v", err)
	}
}

func TestVerifierRejectsQueryUnderWrongSQL(t *testing.T) {
	_, p, v := pipeline(t, 6, 1, 6)
	res, err := p.AggregateEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyAggregation(res.Receipt); err != nil {
		t.Fatal(err)
	}
	qr, err := p.Query("SELECT COUNT(*) FROM clogs WHERE proto = 6")
	if err != nil {
		t.Fatal(err)
	}
	// The operator claims the receipt answers a different question.
	if _, err := v.VerifyQuery("SELECT COUNT(*) FROM clogs WHERE dropped = 0", qr.Receipt); !errors.Is(err, ErrWrongProgram) {
		t.Fatalf("wrong SQL accepted: %v", err)
	}
}

func TestVerifierRejectsTamperedJournal(t *testing.T) {
	_, p, v := pipeline(t, 7, 1, 6)
	res, err := p.AggregateEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	res.Receipt.(*zkvm.Receipt).Segments[0].Journal[20]++ // falsify a journal word
	if _, err := v.VerifyAggregation(res.Receipt); err == nil {
		t.Fatal("tampered journal accepted")
	}
}

func TestQueryOnEmptyCLog(t *testing.T) {
	st := store.Open(0)
	lg := ledger.New()
	p := NewProver(st, lg, testOpts)
	qr, err := p.Query("SELECT COUNT(*) FROM clogs")
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(lg)
	j, err := v.VerifyQuery(qr.SQL, qr.Receipt)
	if err != nil {
		t.Fatal(err)
	}
	if j.Matched != 0 {
		t.Fatalf("matched %d on empty clog", j.Matched)
	}
}

func TestQueryResultsMatchHostReference(t *testing.T) {
	_, p, v := pipeline(t, 8, 2, 12)
	for epoch := uint64(0); epoch < 2; epoch++ {
		res, err := p.AggregateEpoch(epoch)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.VerifyAggregation(res.Receipt); err != nil {
			t.Fatal(err)
		}
	}
	// Cross-check SUM(packets) equals the sum over the raw records.
	var want uint64
	st := p.store
	for _, epoch := range st.Epochs() {
		ids, err := st.Routers(epoch)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			recs, err := st.Epoch(epoch, id)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				want += uint64(r.Packets)
			}
		}
	}
	qr, err := p.Query("SELECT SUM(packets) FROM clogs")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyQuery(qr.SQL, qr.Receipt); err != nil {
		t.Fatal(err)
	}
	if qr.Result() != want {
		t.Fatalf("proven sum %d, raw sum %d", qr.Result(), want)
	}
}

func TestBadSQLRejectedEarly(t *testing.T) {
	_, p, _ := pipeline(t, 9, 1, 4)
	if _, err := p.Query("SELECT BOGUS(*) FROM clogs"); err == nil {
		t.Fatal("bad SQL accepted")
	}
}
