// Package clog defines the entries of the combined log (CLog) of the
// paper — the per-flow aggregate dataset the prover maintains across
// aggregation rounds — and the leaf digests of the vmtree root that
// commits it (the root every aggregation journal carries).
//
// The canonical aggregation policy (Entry.Merge) merges every RLog
// record for the same 5-tuple by summing the additive counters
// (packets, bytes, drops, hop counts, RTT and jitter accumulate for
// averages) and keeping maxima for the bound-style SLA metrics. A CLog
// is a []Entry in its canonical layout — what the Merkle leaves commit
// and what guests consume — sorted by flow key; guest.ReferenceAggregate
// is the one host-side model that builds it.
package clog

import (
	"zkflow/internal/netflow"
	"zkflow/internal/vmtree"
)

// Entry is one aggregated flow.
type Entry struct {
	Key       netflow.FlowKey
	Packets   uint32
	Bytes     uint32
	Dropped   uint32
	HopCount  uint32
	RTTSum    uint32
	RTTMax    uint32
	JitterSum uint32
	JitterMax uint32
	Count     uint32 // number of records merged into this entry
}

// EntryWords is the guest word count of one entry.
const EntryWords = netflow.KeyWords + 9

// Merge folds one record into the entry under the canonical policy.
// The keys must already match.
func (e *Entry) Merge(r *netflow.Record) {
	e.Packets += r.Packets
	e.Bytes += r.Bytes
	e.Dropped += r.Dropped
	e.HopCount += r.HopCount
	e.RTTSum += r.RTTMicros
	if r.RTTMicros > e.RTTMax {
		e.RTTMax = r.RTTMicros
	}
	e.JitterSum += r.JitterMicros
	if r.JitterMicros > e.JitterMax {
		e.JitterMax = r.JitterMicros
	}
	e.Count++
}

// Words returns the guest encoding: key words then counters.
func (e *Entry) Words() [EntryWords]uint32 {
	k := e.Key.Words()
	return [EntryWords]uint32{
		k[0], k[1], k[2], k[3],
		e.Packets, e.Bytes, e.Dropped, e.HopCount,
		e.RTTSum, e.RTTMax, e.JitterSum, e.JitterMax, e.Count,
	}
}

// EntriesWords flattens an explicit entry slice (already sorted).
func EntriesWords(entries []Entry) []uint32 {
	out := make([]uint32, 0, len(entries)*EntryWords)
	for i := range entries {
		w := entries[i].Words()
		out = append(out, w[:]...)
	}
	return out
}

// LeafDigests hashes each entry of a sorted snapshot into its
// guest-convention (vmtree) leaf digest — the same leaves the
// aggregation guest commits to in its journal roots.
func LeafDigests(entries []Entry) []vmtree.Digest {
	out := make([]vmtree.Digest, len(entries))
	for i := range entries {
		w := entries[i].Words()
		out[i] = vmtree.HashWords(w[:])
	}
	return out
}

// SubTreeRoots shards the canonical sorted entry list into aligned
// power-of-two sub-trees of the guest-convention commitment and
// returns each sub-tree's root. Shards can be hashed independently —
// per goroutine or per router — and merged back with
// MergeSubTreeRoots; the merge equals the monolithic guest root
// (vmtree.Root over the entry words) exactly.
func SubTreeRoots(entries []Entry, shards int) []vmtree.Digest {
	return vmtree.SubRoots(LeafDigests(entries), shards)
}

// MergeSubTreeRoots folds aligned sub-tree roots to the global
// guest-convention CLog root.
func MergeSubTreeRoots(roots []vmtree.Digest) vmtree.Digest {
	return vmtree.MergeRoots(roots)
}
