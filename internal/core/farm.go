package core

import (
	"context"

	"zkflow/internal/clog"
	"zkflow/internal/gperm"
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

// FoldBackend is a Backend that can also run the fold leaf stage
// remotely: verify each segment receipt's seal and return its
// fold-tree leaf digest, in segment order. remote.Coordinator
// implements it, dispatching one fold-leaf job per segment across the
// farm. Folding stays sound with an untrusted backend — fold.Fold
// re-derives every leaf digest locally and rejects mismatches, so a
// lying worker can fail a fold but never corrupt its root.
type FoldBackend interface {
	Backend
	FoldLeaves(ctx context.Context, prog *zkvm.Program, segs []*zkvm.SegmentReceipt, vopts zkvm.VerifyOptions) ([]gperm.Digest, error)
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
