package router

import (
	"context"
	"testing"

	"zkflow/internal/ledger"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
)

func newSim() *Sim {
	return NewSim(trafficgen.Config{Seed: 1, NumFlows: 64, Routers: 4},
		store.Open(0), ledger.New())
}

func TestRunEpochWritesAndCommits(t *testing.T) {
	s := newSim()
	batches, err := s.RunEpoch(context.Background(), 0, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 4 {
		t.Fatalf("%d batches", len(batches))
	}
	for id := uint32(0); id < 4; id++ {
		recs, err := s.Store.Epoch(0, id)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 25 {
			t.Fatalf("router %d stored %d records", id, len(recs))
		}
		com, err := s.Ledger.Lookup(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if com.Hash != ledger.CommitRecords(recs) {
			t.Fatalf("router %d commitment does not match stored records", id)
		}
	}
	if _, err := ledger.FromEntries(s.Ledger.Entries()); err != nil {
		t.Fatal(err)
	}
}

func TestRunEpochsMultiple(t *testing.T) {
	s := newSim()
	if err := s.RunEpochs(context.Background(), 0, 3, 10); err != nil {
		t.Fatal(err)
	}
	if got := s.Store.Epochs(); len(got) != 3 {
		t.Fatalf("epochs %v", got)
	}
	if n := s.Ledger.Len(); n != 12 {
		t.Fatalf("ledger length %d", n)
	}
}

func TestRunEpochDuplicateFails(t *testing.T) {
	s := newSim()
	if _, err := s.RunEpoch(context.Background(), 0, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunEpoch(context.Background(), 0, 5); err == nil {
		t.Fatal("re-running an epoch should fail on duplicate commitments")
	}
}

func TestRunEpochCancelled(t *testing.T) {
	s := newSim()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunEpoch(ctx, 0, 5); err == nil {
		t.Fatal("cancelled context ignored")
	}
}

func TestCollectEpoch(t *testing.T) {
	s := newSim()
	if _, err := s.RunEpoch(context.Background(), 7, 12); err != nil {
		t.Fatal(err)
	}
	in, err := CollectEpoch(s.Store, s.Ledger, 7)
	if err != nil {
		t.Fatal(err)
	}
	if in.Epoch != 7 || len(in.Routers) != 4 || len(in.Batches) != 4 || len(in.Commitments) != 4 {
		t.Fatalf("inputs: %+v", in)
	}
	for i := range in.Routers {
		if in.Commitments[i].Hash != ledger.CommitRecords(in.Batches[i]) {
			t.Fatalf("router %d inputs inconsistent", in.Routers[i])
		}
	}
}

func TestCollectEpochMissing(t *testing.T) {
	s := newSim()
	if _, err := CollectEpoch(s.Store, s.Ledger, 42); err == nil {
		t.Fatal("empty epoch collected")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, b := newSim(), newSim()
	ba, err := a.RunEpoch(context.Background(), 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.RunEpoch(context.Background(), 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for r := range ba {
		for i := range ba[r] {
			if ba[r][i] != bb[r][i] {
				t.Fatalf("router %d record %d differs across identical sims", r, i)
			}
		}
	}
}
