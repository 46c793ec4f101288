package clog

import (
	"testing"

	"zkflow/internal/netflow"
	"zkflow/internal/vmtree"
)

func testEntries(n int) []Entry {
	out := make([]Entry, n) // SrcIP ascends: already in key order
	for i := range out {
		out[i] = entryOf(netflow.Record{
			Key: netflow.FlowKey{
				SrcIP: 0x0a000000 + uint32(i), DstIP: 0x0a800000 + uint32(i%7),
				SrcPort: uint16(1024 + i), DstPort: 443, Proto: 6,
			},
			Packets: uint32(1 + i), Bytes: uint32(40 * (i + 1)),
			RTTMicros: uint32(100 + i), JitterMicros: uint32(i % 13),
		})
	}
	return out
}

// TestSubTreeMergeMatchesMonolithic is the sharding contract:
// splitting the CLog commitment into aligned sub-trees and merging
// their roots reproduces the exact monolithic guest-convention root at
// every shard count, entry count (incl. non-powers of two and empty),
// and regardless of which goroutine hashed which shard.
func TestSubTreeMergeMatchesMonolithic(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 8, 13, 64, 100} {
		entries := testEntries(n)
		words := make([][]uint32, len(entries))
		for i := range entries {
			w := entries[i].Words()
			words[i] = w[:]
		}
		want := vmtree.Root(words)
		for _, shards := range []int{1, 2, 3, 4, 7, 8, 16, 1000} {
			roots := SubTreeRoots(entries, shards)
			if got := MergeSubTreeRoots(roots); got != want {
				t.Fatalf("n=%d shards=%d: merged root != monolithic root", n, shards)
			}
		}
	}
}

// TestSubTreeRootsParallelSafe hashes shards on separate goroutines and
// checks the merge is independent of completion order.
func TestSubTreeRootsParallelSafe(t *testing.T) {
	entries := testEntries(97)
	want := MergeSubTreeRoots(SubTreeRoots(entries, 1))
	const shards = 8
	digests := LeafDigests(entries)
	sub := vmtree.SubRoots(digests, shards)
	got := make([]vmtree.Digest, len(sub))
	done := make(chan struct{})
	for i := range sub {
		go func(i int) {
			// Each goroutine recomputes its shard from the raw entries.
			got[i] = SubTreeRoots(entries, shards)[i]
			done <- struct{}{}
		}(i)
	}
	for range sub {
		<-done
	}
	if MergeSubTreeRoots(got) != want {
		t.Fatal("parallel shard hashing changed the merged root")
	}
}
