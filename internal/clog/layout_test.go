package clog_test

import (
	"testing"

	"zkflow/internal/clog"
	"zkflow/internal/guest"
	"zkflow/internal/netflow"
	"zkflow/internal/vmtree"
)

// The canonical layout is what guest.ReferenceAggregate, the one host
// model of the merge, returns: these tests pin it from this package's
// side.

func flow(src uint32) netflow.Record {
	return netflow.Record{
		Key:     netflow.FlowKey{SrcIP: src, DstIP: 9, SrcPort: 80, DstPort: 443, Proto: 6},
		Packets: 10, Bytes: 1000, RTTMicros: 100,
	}
}

func aggregate(srcs ...uint32) []clog.Entry {
	var recs []netflow.Record
	for _, s := range srcs {
		recs = append(recs, flow(s))
	}
	return guest.ReferenceAggregate(nil, recs)
}

func TestDistinctKeysStayDistinct(t *testing.T) {
	if n := len(aggregate(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)); n != 10 {
		t.Fatalf("len = %d", n)
	}
	if n := len(aggregate(1, 2, 1, 2)); n != 2 {
		t.Fatalf("len = %d with two flows", n)
	}
}

func TestEntriesSorted(t *testing.T) {
	es := aggregate(5, 1, 9, 3, 7)
	for i := 1; i < len(es); i++ {
		if !es[i-1].Key.Less(es[i].Key) {
			t.Fatalf("entries not sorted at %d", i)
		}
	}
}

func TestRootDeterministicAcrossInsertOrder(t *testing.T) {
	root := func(es []clog.Entry) vmtree.Digest { return vmtree.RootFromDigests(clog.LeafDigests(es)) }
	if root(aggregate(1, 2, 3, 4)) != root(aggregate(4, 3, 2, 1)) {
		t.Fatal("root depends on insertion order")
	}
}
