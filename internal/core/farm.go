package core

import (
	"context"

	"zkflow/internal/clog"
	"zkflow/internal/par"
	"zkflow/internal/vmtree"
	"zkflow/internal/zkvm"
)

// Backend is a cancellable proving backend. The farm coordinator
// (remote.Coordinator) implements it: segmented proves fan segments
// out across registered workers and reassemble a composite receipt
// byte-identical to the local prover's output; whole jobs dispatch to
// one worker. Options.Farm plugs a Backend into the Prover/Scheduler
// beside the in-process pool.
type Backend interface {
	ProveContext(ctx context.Context, prog *zkvm.Program, input []uint32, opts zkvm.ProveOptions) (zkvm.AnyReceipt, error)
}

// entriesRootParallelMin is the snapshot size below which sharded
// hashing is not worth the goroutine fan-out.
const entriesRootParallelMin = 2048

// entriesRoot computes the guest-convention CLog commitment of a
// sorted snapshot — the same value as
// vmtree.Root(guest.EntryWordsOf(entries)) — by hashing aligned
// sub-trees on parallel goroutines and merging their roots
// (clog.SubTreeRoots / MergeSubTreeRoots). This is the host-side half
// of the farm's sharding story: per-shard sub-trees are independent,
// so the prover's root cross-checks stop being a serial tax as CLogs
// grow.
func entriesRoot(entries []clog.Entry) vmtree.Digest {
	n := len(entries)
	shards := par.Workers(0)
	if shards <= 1 || n < entriesRootParallelMin {
		return clog.MergeSubTreeRoots(clog.SubTreeRoots(entries, 1))
	}
	digests := make([]vmtree.Digest, n)
	par.ForChunks(shards, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w := entries[i].Words()
			digests[i] = vmtree.HashWords(w[:])
		}
	})
	return vmtree.MergeRoots(vmtree.SubRoots(digests, shards))
}
