package core

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
	"zkflow/internal/zkvm"
)

// segPipeline is pipeline() with continuation proving enabled.
func segPipeline(t *testing.T, seed int64, epochs, recordsPerRouter int, opts Options) (*Prover, *Verifier) {
	t.Helper()
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: seed, NumFlows: 48, Routers: 4, LossRate: 0.02}, st, lg)
	if err := sim.RunEpochs(context.Background(), 0, epochs, recordsPerRouter); err != nil {
		t.Fatal(err)
	}
	return NewProver(st, lg, opts), NewVerifier(lg)
}

// TestSegmentedAggregationEndToEnd: with SegmentCycles set,
// aggregation rounds produce composite receipts that chain through
// the verifier exactly like single-segment ones, and queries stay
// single-segment.
func TestSegmentedAggregationEndToEnd(t *testing.T) {
	p, v := segPipeline(t, 31, 2, 12, Options{Checks: 6, SegmentCycles: 1 << 12})
	for epoch := uint64(0); epoch < 2; epoch++ {
		res, err := p.AggregateEpoch(epoch)
		if err != nil {
			t.Fatalf("aggregate epoch %d: %v", epoch, err)
		}
		if n := res.Receipt.(*zkvm.Receipt).NumSegments(); n < 2 {
			t.Fatalf("epoch %d: %d segments, want continuation chain", epoch, n)
		}
		j, err := v.VerifyAggregation(res.Receipt)
		if err != nil {
			t.Fatalf("verify epoch %d: %v", epoch, err)
		}
		if j.Epoch != uint32(epoch) {
			t.Fatalf("journal epoch %d", j.Epoch)
		}
	}

	qr, err := p.Query("SELECT SUM(hop_count) FROM clogs WHERE proto = 6")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyQuery(qr.SQL, qr.Receipt); err != nil {
		t.Fatalf("query after composite rounds: %v", err)
	}
}

// TestSegmentedSchedulerMatchesSerial: an AggregateEpochs batch with
// continuations commits the same journal chain as the serial
// segmented prover, cuts every round into several segments, and every
// receipt verifies in order.
func TestSegmentedSchedulerMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // windows {0, 1} and {2}
	opts := Options{Checks: 6, SegmentCycles: 1 << 12}
	serialP, _ := segPipeline(t, 32, 3, 10, opts)
	var serial []*AggregationResult
	for epoch := uint64(0); epoch < 3; epoch++ {
		res, err := serialP.AggregateEpoch(epoch)
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, res)
	}

	p, v := segPipeline(t, 32, 3, 10, opts)
	results, err := p.AggregateEpochs([]uint64{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if n := res.Receipt.(*zkvm.Receipt).NumSegments(); n < 2 {
			t.Fatalf("round %d: %d segments, want continuation chain", i, n)
		}
		if !slices.Equal(res.Receipt.JournalWords(), serial[i].Receipt.JournalWords()) {
			t.Fatalf("round %d: batch journal differs from serial", i)
		}
		if _, err := v.VerifyAggregation(res.Receipt); err != nil {
			t.Fatalf("verify batch round %d: %v", i, err)
		}
	}
}

// TestSegmentedTamperStillAborts: tampered telemetry aborts the guest
// on the segmented path too — no composite receipt is produced.
func TestSegmentedTamperStillAborts(t *testing.T) {
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: 33, NumFlows: 24, Routers: 2}, st, lg)
	if _, err := sim.RunEpoch(context.Background(), 0, 6); err != nil {
		t.Fatal(err)
	}
	st.Append(0, 0, []netflow.Record{{Key: netflow.FlowKey{SrcIP: 0xbad}, Packets: 1, StartUnix: 1, EndUnix: 2}})
	p := NewProver(st, lg, Options{Checks: 6, SegmentCycles: 1 << 10})
	if _, err := p.AggregateEpoch(0); err == nil {
		t.Fatal("tampered store proven through continuations")
	}
}
