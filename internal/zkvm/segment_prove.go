package zkvm

import (
	"encoding/binary"
	"fmt"

	"zkflow/internal/par"
	"zkflow/internal/transcript"
)

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
// statement, against the shared boundary-image tables (entry is nil
// for a segment entered at genesis, exit for a final one; a
// one-segment run is both). Its crew is par.Workers() wide, like every
// crew of the prover.
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
	s.NumFinal = uint32(len(seg.exitImg))
	tr := segmentStatement(sr)
	tabs := commitTrace(seg, newSalter(seed), par.Workers(), opts.Observer, tr, s, entry, exit)

	defer stageTimer(opts.Observer, StageSeal)()
	ops := tabs.openers()
	tabs.openChecks(ops, tr, opts.checks(), s)
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
	tr.AppendUint64("num-final", uint64(sr.Seal.NumFinal))
	return tr
}
