package clog

import (
	"testing"
	"testing/quick"

	"zkflow/internal/netflow"
	"zkflow/internal/vmtree"
)

func rec(src uint32, rtt uint32) netflow.Record {
	return netflow.Record{
		Key:          netflow.FlowKey{SrcIP: src, DstIP: 9, SrcPort: 80, DstPort: 443, Proto: 6},
		Packets:      10,
		Bytes:        1000,
		Dropped:      1,
		HopCount:     4,
		RTTMicros:    rtt,
		JitterMicros: rtt / 10,
	}
}

func TestMergeAccumulates(t *testing.T) {
	c := New()
	r1, r2 := rec(1, 100), rec(1, 300)
	c.Merge(&r1)
	c.Merge(&r2)
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	e, ok := c.Get(r1.Key)
	if !ok {
		t.Fatal("entry missing")
	}
	if e.Packets != 20 || e.Bytes != 2000 || e.Dropped != 2 || e.HopCount != 8 {
		t.Fatalf("sums wrong: %+v", e)
	}
	if e.RTTSum != 400 || e.RTTMax != 300 {
		t.Fatalf("rtt agg wrong: %+v", e)
	}
	if e.JitterSum != 40 || e.JitterMax != 30 {
		t.Fatalf("jitter agg wrong: %+v", e)
	}
	if e.Count != 2 {
		t.Fatalf("count = %d", e.Count)
	}
}

func TestDistinctKeysStayDistinct(t *testing.T) {
	c := New()
	for i := uint32(0); i < 10; i++ {
		r := rec(i, 100)
		c.Merge(&r)
	}
	if c.Len() != 10 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestEntriesSorted(t *testing.T) {
	c := New()
	for _, src := range []uint32{5, 1, 9, 3, 7} {
		r := rec(src, 100)
		c.Merge(&r)
	}
	es := c.Entries()
	for i := 1; i < len(es); i++ {
		if !es[i-1].Key.Less(es[i].Key) {
			t.Fatalf("entries not sorted at %d", i)
		}
	}
}

func TestSnapshotInvalidatedByMerge(t *testing.T) {
	c := New()
	r := rec(1, 100)
	c.Merge(&r)
	_ = c.Entries()
	r2 := rec(2, 100)
	c.Merge(&r2)
	if len(c.Entries()) != 2 {
		t.Fatal("stale snapshot returned")
	}
}

func TestWireRoundTrip(t *testing.T) {
	f := func(a, b, cnt uint32) bool {
		e := Entry{
			Key:     netflow.FlowKey{SrcIP: a, DstIP: b, SrcPort: uint16(a), DstPort: uint16(b), Proto: 17},
			Packets: a, Bytes: b, Dropped: a % 7, HopCount: b % 9,
			RTTSum: a + b, RTTMax: a | b, JitterSum: a ^ b, JitterMax: a & b, Count: cnt,
		}
		got, err := DecodeWire(e.Wire())
		return err == nil && got == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeWireShort(t *testing.T) {
	if _, err := DecodeWire(make([]byte, WireBytes-1)); err == nil {
		t.Fatal("short entry accepted")
	}
}

func TestWordsRoundTrip(t *testing.T) {
	r := rec(3, 250)
	e := FromRecord(&r)
	if FromWords(e.Words()) != e {
		t.Fatal("word round trip failed")
	}
}

// root is the commitment the aggregation journal carries for c.
func root(c *CLog) vmtree.Digest {
	return vmtree.RootFromDigests(LeafDigests(c.Entries()))
}

func TestRootChangesWithData(t *testing.T) {
	c := New()
	r := rec(1, 100)
	c.Merge(&r)
	root1 := root(c)
	r2 := rec(2, 100)
	c.Merge(&r2)
	if root(c) == root1 {
		t.Fatal("root insensitive to new flow")
	}
}

func TestRootDeterministicAcrossInsertOrder(t *testing.T) {
	mk := func(order []uint32) *CLog {
		c := New()
		for _, s := range order {
			r := rec(s, 100)
			c.Merge(&r)
		}
		return c
	}
	a := mk([]uint32{1, 2, 3, 4})
	b := mk([]uint32{4, 3, 2, 1})
	if root(a) != root(b) {
		t.Fatal("root depends on insertion order")
	}
}

func TestClone(t *testing.T) {
	c := New()
	r := rec(1, 100)
	c.Merge(&r)
	d := c.Clone()
	r2 := rec(2, 100)
	d.Merge(&r2)
	if c.Len() != 1 || d.Len() != 2 {
		t.Fatal("clone aliases original")
	}
	// Mutating the clone's entry must not affect the original.
	r3 := rec(1, 900)
	d.Merge(&r3)
	e, _ := c.Get(r.Key)
	if e.Count != 1 {
		t.Fatal("clone shares entry pointers")
	}
}

func TestEmptyCLog(t *testing.T) {
	c := New()
	if len(c.Entries()) != 0 {
		t.Fatal("phantom entries")
	}
	_ = root(c) // must not panic
	if len(c.Words()) != 0 {
		t.Fatal("phantom words")
	}
}

func TestEntriesWordsMatchesWords(t *testing.T) {
	c := New()
	for i := uint32(0); i < 5; i++ {
		r := rec(i, 10*i)
		c.Merge(&r)
	}
	a, b := c.Words(), EntriesWords(c.Entries())
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("content mismatch")
		}
	}
}
