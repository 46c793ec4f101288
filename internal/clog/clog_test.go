package clog

import (
	"testing"

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

// entryOf is the entry of one flow after the given records.
func entryOf(recs ...netflow.Record) Entry {
	e := Entry{Key: recs[0].Key}
	for i := range recs {
		e.Merge(&recs[i])
	}
	return e
}

func TestMergeAccumulates(t *testing.T) {
	e := entryOf(rec(1, 100), rec(1, 300))
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

// root is the commitment the aggregation journal carries for entries.
func root(entries []Entry) vmtree.Digest {
	return vmtree.RootFromDigests(LeafDigests(entries))
}

func TestRootChangesWithData(t *testing.T) {
	one := []Entry{entryOf(rec(1, 100))}
	two := append(one, entryOf(rec(2, 100)))
	if root(two) == root(one) {
		t.Fatal("root insensitive to new flow")
	}
	if root([]Entry{entryOf(rec(1, 100), rec(1, 100))}) == root(one) {
		t.Fatal("root insensitive to a merged record")
	}
}

func TestEmptyCLog(t *testing.T) {
	if len(LeafDigests(nil)) != 0 {
		t.Fatal("phantom leaves")
	}
	if root(nil) != vmtree.Zero {
		t.Fatal("empty CLog does not commit to the zero digest")
	}
	if len(EntriesWords(nil)) != 0 {
		t.Fatal("phantom words")
	}
}

// TestEntriesWordsMatchesWords: the guest's word stream is each entry's
// words in order.
func TestEntriesWordsMatchesWords(t *testing.T) {
	var entries []Entry
	for i := uint32(0); i < 5; i++ {
		entries = append(entries, entryOf(rec(i, 10*i)))
	}
	words := EntriesWords(entries)
	if len(words) != len(entries)*EntryWords {
		t.Fatal("length mismatch")
	}
	for i := range entries {
		if [EntryWords]uint32(words[i*EntryWords:]) != entries[i].Words() {
			t.Fatalf("entry %d: content mismatch", i)
		}
	}
}
