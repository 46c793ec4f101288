package store

import (
	"errors"
	"sync"
	"testing"

	"zkflow/internal/netflow"
)

func rec(i uint32) netflow.Record {
	return netflow.Record{
		Key:     netflow.FlowKey{SrcIP: i, DstIP: 9, SrcPort: 80, DstPort: 443, Proto: 6},
		Packets: i, Bytes: i * 100, RouterID: i % 4,
		StartUnix: 1700000000, EndUnix: 1700000005,
	}
}

func TestAppendAndRead(t *testing.T) {
	s := Open(0)
	s.Append(1, 0, []netflow.Record{rec(1), rec(2)})
	s.Append(1, 0, []netflow.Record{rec(3)})
	got, err := s.Epoch(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d records", len(got))
	}
}

func TestEpochReturnsCopy(t *testing.T) {
	s := Open(0)
	s.Append(1, 0, []netflow.Record{rec(1)})
	got, _ := s.Epoch(1, 0)
	got[0].Packets = 999
	again, _ := s.Epoch(1, 0)
	if again[0].Packets == 999 {
		t.Fatal("Epoch aliases internal storage")
	}
}

func TestEmptyEpoch(t *testing.T) {
	s := Open(0)
	got, err := s.Epoch(5, 2)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestRetentionEviction(t *testing.T) {
	s := Open(3)
	for e := uint64(0); e < 10; e++ {
		s.Append(e, 0, []netflow.Record{rec(uint32(e))})
	}
	if _, err := s.Epoch(5, 0); !errors.Is(err, ErrEvicted) {
		t.Fatalf("epoch 5 should be evicted, got %v", err)
	}
	for e := uint64(7); e < 10; e++ {
		if _, err := s.Epoch(e, 0); err != nil {
			t.Fatalf("epoch %d evicted too early: %v", e, err)
		}
	}
	if got := s.Epochs(); len(got) != 3 || got[0] != 7 {
		t.Fatalf("retained epochs %v", got)
	}
}

// TestAppendEvictedRefused pins the silent-loss fix: appending to an
// epoch already outside the retention window used to insert the
// segment and then evict it in the same call, dropping the records
// with no error. The write must now be refused whole, with the count.
func TestAppendEvictedRefused(t *testing.T) {
	s := Open(3)
	for e := uint64(0); e < 10; e++ {
		if _, err := s.Append(e, 0, []netflow.Record{rec(uint32(e))}); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Len()
	dropped, err := s.Append(2, 0, []netflow.Record{rec(90), rec(91)})
	if !errors.Is(err, ErrEvicted) {
		t.Fatalf("append to evicted epoch: err = %v, want ErrEvicted", err)
	}
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if s.Len() != before {
		t.Fatalf("evicted append changed Len: %d -> %d", before, s.Len())
	}
	// The newest retained epoch must still accept writes and report
	// zero drops.
	if dropped, err := s.Append(9, 0, []netflow.Record{rec(92)}); err != nil || dropped != 0 {
		t.Fatalf("append to retained epoch: dropped=%d err=%v", dropped, err)
	}
}

func TestUnlimitedRetention(t *testing.T) {
	s := Open(0)
	for e := uint64(0); e < 50; e++ {
		s.Append(e, 0, []netflow.Record{rec(uint32(e))})
	}
	if _, err := s.Epoch(0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRouters(t *testing.T) {
	s := Open(0)
	s.Append(1, 3, []netflow.Record{rec(1)})
	s.Append(1, 1, []netflow.Record{rec(2)})
	s.Append(2, 0, []netflow.Record{rec(3)})
	got, err := s.Routers(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("routers = %v", got)
	}
	// Evicted epochs must be distinguishable from empty ones.
	e := Open(1)
	e.Append(5, 0, []netflow.Record{rec(1)})
	if _, err := e.Routers(1); !errors.Is(err, ErrEvicted) {
		t.Fatalf("evicted Routers: %v", err)
	}
}

func TestLen(t *testing.T) {
	s := Open(0)
	s.Append(1, 0, []netflow.Record{rec(1), rec(2)})
	s.Append(2, 1, []netflow.Record{rec(3)})
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestConcurrentWriters(t *testing.T) {
	s := Open(0)
	var wg sync.WaitGroup
	for r := uint32(0); r < 8; r++ {
		wg.Add(1)
		go func(r uint32) {
			defer wg.Done()
			for e := uint64(0); e < 20; e++ {
				s.Append(e, r, []netflow.Record{rec(r)})
			}
		}(r)
	}
	wg.Wait()
	if s.Len() != 8*20 {
		t.Fatalf("len = %d", s.Len())
	}
}
