package zkvm

import (
	"encoding/binary"
	"fmt"
	"sort"

	"zkflow/internal/par"
	"zkflow/internal/transcript"
)

// treeBoundary is the salt domain label of boundary-image trees
// (continuing the treeExec..treeProdSort sequence in trace.go).
const treeBoundary byte = 6

// wordsToBytes serialises journal words little-endian.
func wordsToBytes(words []uint32) []byte {
	out := make([]byte, 0, 4*len(words))
	for _, w := range words {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

// proveSegmentSeeded seals one segment — the only function that does:
// the trace commitment and its sampled checks under the segment's
// statement, then the import/exit/cover families over the shared
// boundary-image tables (entry is nil for a segment entered at genesis,
// exit for a final one; a one-segment run is both). Its crew is
// par.Workers() wide, like every crew of the prover.
func proveSegmentSeeded(seg *segmentExecution, opts ProveOptions, seed *[32]byte, entry, exit *table) (*SegmentReceipt, error) {
	ex := seg.ex
	if len(ex.Rows) == 0 {
		return nil, fmt.Errorf("zkvm: empty execution trace")
	}
	sr := &SegmentReceipt{
		ImageID:  ex.Program.ID(),
		Index:    uint32(seg.index),
		Final:    seg.final,
		ExitCode: ex.ExitCode,
		Journal:  append([]uint32(nil), ex.Journal...),
		Entry:    seg.entry,
		Exit:     seg.exit,
	}
	s := &sr.Seal
	s.NumRows = uint32(len(ex.Rows))
	s.NumMem = uint32(len(ex.MemLog))
	tr := segmentStatement(sr)
	tabs := commitTrace(ex, newSalter(seed), par.Workers(), opts.Observer, tr, s)

	defer stageTimer(opts.Observer, StageSeal)()
	checks := opts.checks()
	ops := tabs.openers(entry, exit)
	tabs.openChecks(ops, tr, checks, s)
	sorted, nMem := tabs.sorted, len(tabs.sorted)

	// Continuation families. Import: entry-image pair i materialised as
	// the i-th program-order log entry.
	if sr.Entry.MemLen > 0 {
		for _, i := range tr.ChallengeIndices("import", checks, int(sr.Entry.MemLen)) {
			sr.ImportChecks = append(sr.ImportChecks, ImportCheck{
				MemProg: ops[proofMemProg].openRecord(i),
				Img:     ops[proofEntry].openRecord(i),
			})
		}
	}
	// Exit: every exit-image pair is the last sorted-log access of its
	// address with the same (nonzero) value.
	if !seg.final && sr.Exit.MemLen > 0 {
		for _, j := range tr.ChallengeIndices("exit", checks, int(sr.Exit.MemLen)) {
			addr := seg.exitImg[j].Addr
			// Last sorted position with this address.
			p := sort.Search(len(sorted), func(i int) bool { return sorted[i].Addr > addr }) - 1
			sr.ExitChecks = append(sr.ExitChecks, ExitCheck{
				Img:  ops[proofExit].openRecord(j),
				Pos:  uint32(p),
				Sort: ops[proofMemSort].openSpan(p, min(p+2, nMem)),
			})
		}
	}
	// Cover: every last access that leaves a nonzero value appears in
	// the exit image.
	if !seg.final && nMem > 0 {
		for _, i := range tr.ChallengeIndices("cover", checks, nMem) {
			cc := CoverCheck{Entries: ops[proofMemSort].openSpan(i, min(i+2, nMem))}
			if isLast := i+1 == nMem || sorted[i+1].Addr != sorted[i].Addr; isLast && sorted[i].Val != 0 {
				addr := sorted[i].Addr
				j := sort.Search(len(seg.exitImg), func(k int) bool { return seg.exitImg[k].Addr >= addr })
				cc.HasImg = true
				cc.ExitIdx = uint32(j)
				cc.Img = ops[proofExit].openRecord(j)
			}
			sr.CoverChecks = append(sr.CoverChecks, cc)
		}
	}
	// Every check family is open: one multiproof per tree.
	for k := range ops {
		sr.Proofs[k] = ops[k].proof()
	}
	tabs.release()
	return sr, nil
}

// segmentStatement is the statement of a segment, the one statement a
// seal binds: image,
// position and role in the chain, journal slice, and both boundary
// states. Splicing a segment into a different chain position, run, or
// journal therefore re-derives every sampled index and invalidates the
// openings.
func segmentStatement(sr *SegmentReceipt) *transcript.Transcript {
	tr := transcript.New(segLabel)
	tr.Append("image-id", sr.ImageID[:])
	tr.AppendUint64("seg-index", uint64(sr.Index))
	final := uint64(0)
	if sr.Final {
		final = 1
	}
	tr.AppendUint64("seg-final", final)
	tr.AppendUint64("exit-code", uint64(sr.ExitCode))
	tr.Append("journal", wordsToBytes(sr.Journal))
	tr.Append("entry-state", encodeState(&sr.Entry))
	tr.Append("exit-state", encodeState(&sr.Exit))
	tr.AppendUint64("num-rows", uint64(sr.Seal.NumRows))
	tr.AppendUint64("num-mem", uint64(sr.Seal.NumMem))
	return tr
}
