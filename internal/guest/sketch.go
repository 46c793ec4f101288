package guest

import (
	"fmt"

	"zkflow/internal/netflow"
	"zkflow/internal/sketch"
	"zkflow/internal/vmtree"
	"zkflow/internal/zkvm"
)

// This file implements the provable sketch-merge path: routers commit
// to Count-Min sketches instead of raw records (the "any logging or
// sketching algorithm" claim of the paper's §1), and the guest
// verifies each sketch against its published commitment, merges the
// counters in-VM, answers point queries from the merged sketch, and
// journals the merged sketch's digest. The sketch arithmetic (FNV mix,
// multiply-shift row hash) is identical, instruction for instruction,
// to internal/sketch.

// SketchAbortCommit is the abort code for a sketch whose hash does
// not match its commitment; SketchAbortShape for dimension mismatch.
const (
	SketchAbortCommit = 11
	SketchAbortShape  = 12
)

// Sketch guest memory map (word addresses).
const (
	skCommit = 64 // 8w claimed commitment
	skDigest = 72 // 8w computed digest
	skMerged = 3000
)

// SketchMergeProgram compiles a merge guest for fixed sketch
// dimensions. The dimensions are embedded as immediates, so the
// receipt's image ID binds them.
func SketchMergeProgram(depth, width int) *zkvm.Program {
	dw := depth * width
	sketchWords := uint32(2 + dw)
	bufBase := uint32(skMerged + 2 + dw + 16)

	a := zkvm.NewAssembler()
	a.Comment("merged sketch header")
	a.Li(zkvm.R2, uint32(depth))
	a.Sw(zkvm.R2, zkvm.R0, skMerged)
	a.Li(zkvm.R2, uint32(width))
	a.Sw(zkvm.R2, zkvm.R0, skMerged+1)

	a.Comment("read router count")
	a.Ecall(zkvm.SysRead)
	a.Ecall(zkvm.SysJournal)
	a.Mov(zkvm.R10, zkvm.R1) // nRouters
	a.Li(zkvm.R8, 0)         // router index

	a.Label("router.loop")
	a.Beq(zkvm.R8, zkvm.R10, "router.done")
	for k := uint32(0); k < 8; k++ {
		a.Ecall(zkvm.SysRead)
		a.Ecall(zkvm.SysJournal)
		a.Sw(zkvm.R1, zkvm.R0, skCommit+k)
	}
	// Read the sketch into the buffer.
	a.Li(zkvm.R9, bufBase)
	a.Li(zkvm.R11, bufBase+sketchWords)
	a.Label("router.read")
	a.Beq(zkvm.R9, zkvm.R11, "router.hash")
	a.Ecall(zkvm.SysRead)
	a.Sw(zkvm.R1, zkvm.R9, 0)
	a.Addi(zkvm.R9, zkvm.R9, 1)
	a.J("router.read")
	a.Label("router.hash")
	a.Li(zkvm.R1, bufBase)
	a.Li(zkvm.R2, sketchWords)
	a.Li(zkvm.R3, skDigest)
	a.Ecall(zkvm.SysHash)
	emitCmp8(a, zkvm.R0, skCommit, zkvm.R0, skDigest, "abort.commit")
	// Shape check: declared dims must match the compiled dims.
	a.Lw(zkvm.R2, zkvm.R0, bufBase)
	a.Li(zkvm.R3, uint32(depth))
	a.Bne(zkvm.R2, zkvm.R3, "abort.shape")
	a.Lw(zkvm.R2, zkvm.R0, bufBase+1)
	a.Li(zkvm.R3, uint32(width))
	a.Bne(zkvm.R2, zkvm.R3, "abort.shape")
	// Merge: merged[i] += sketch[i].
	a.Li(zkvm.R9, 0)
	a.Li(zkvm.R11, uint32(dw))
	a.Label("router.merge")
	a.Beq(zkvm.R9, zkvm.R11, "router.next")
	a.Li(zkvm.R2, bufBase+2)
	a.Add(zkvm.R2, zkvm.R2, zkvm.R9)
	a.Lw(zkvm.R3, zkvm.R2, 0)
	a.Li(zkvm.R2, skMerged+2)
	a.Add(zkvm.R2, zkvm.R2, zkvm.R9)
	a.Lw(zkvm.R4, zkvm.R2, 0)
	a.Add(zkvm.R4, zkvm.R4, zkvm.R3)
	a.Sw(zkvm.R4, zkvm.R2, 0)
	a.Addi(zkvm.R9, zkvm.R9, 1)
	a.J("router.merge")
	a.Label("router.next")
	a.Addi(zkvm.R8, zkvm.R8, 1)
	a.J("router.loop")
	a.Label("router.done")

	a.Comment("journal the merged sketch digest")
	a.Li(zkvm.R1, skMerged)
	a.Li(zkvm.R2, sketchWords)
	a.Li(zkvm.R3, skDigest)
	a.Ecall(zkvm.SysHash)
	for k := uint32(0); k < 8; k++ {
		a.Lw(zkvm.R1, zkvm.R0, skDigest+k)
		a.Ecall(zkvm.SysJournal)
	}

	a.Comment("point queries from the merged sketch")
	a.Ecall(zkvm.SysRead)
	a.Ecall(zkvm.SysJournal)
	a.Mov(zkvm.R10, zkvm.R1) // q
	a.Li(zkvm.R8, 0)
	a.Label("query.loop")
	a.Beq(zkvm.R8, zkvm.R10, "query.done")
	// h = FNV mix over the 4 key words (journalled: queries are public).
	a.Li(zkvm.R12, sketch.MixBasis)
	for k := 0; k < netflow.KeyWords; k++ {
		a.Ecall(zkvm.SysRead)
		a.Ecall(zkvm.SysJournal)
		a.Xor(zkvm.R12, zkvm.R12, zkvm.R1)
		a.Li(zkvm.R2, sketch.MixPrime)
		a.Mul(zkvm.R12, zkvm.R12, zkvm.R2)
	}
	// est = min over rows of merged[r*width + ((h*seed_r)>>7)&(width-1)]
	a.Li(zkvm.R13, 0xffffffff)
	for r := 0; r < depth; r++ {
		a.Li(zkvm.R2, sketch.RowSeed(r))
		a.Mul(zkvm.R2, zkvm.R12, zkvm.R2)
		a.Srli(zkvm.R2, zkvm.R2, 7)
		a.Andi(zkvm.R2, zkvm.R2, uint32(width-1))
		a.Addi(zkvm.R2, zkvm.R2, uint32(skMerged+2+r*width))
		a.Lw(zkvm.R3, zkvm.R2, 0)
		skip := fmt.Sprintf("query.keep.%d", r)
		a.Bgeu(zkvm.R3, zkvm.R13, skip)
		a.Mov(zkvm.R13, zkvm.R3)
		a.Label(skip)
	}
	a.Mov(zkvm.R1, zkvm.R13)
	a.Ecall(zkvm.SysJournal)
	a.Addi(zkvm.R8, zkvm.R8, 1)
	a.J("query.loop")
	a.Label("query.done")
	a.HaltCode(0)

	a.Label("abort.commit")
	a.HaltCode(SketchAbortCommit)
	a.Label("abort.shape")
	a.HaltCode(SketchAbortShape)

	return a.MustAssemble()
}

// SketchBatch is one router's committed sketch.
type SketchBatch struct {
	ID         uint32 // carried in the journal via ordering; informational
	Commitment vmtree.Digest
	Sketch     *sketch.CMS
}

// CommitSketch computes a sketch's canonical commitment (SHA-256 over
// its word encoding, the same bytes the guest hashes).
func CommitSketch(s *sketch.CMS) vmtree.Digest {
	return vmtree.HashWords(s.Words())
}

// SketchInput builds the merge guest's input tape.
func SketchInput(batches []SketchBatch, queries []netflow.FlowKey) []uint32 {
	var out []uint32
	out = append(out, uint32(len(batches)))
	for _, b := range batches {
		out = append(out, b.Commitment[:]...)
		out = append(out, b.Sketch.Words()...)
	}
	out = append(out, uint32(len(queries)))
	for _, k := range queries {
		w := k.Words()
		out = append(out, w[:]...)
	}
	return out
}

// SketchJournal is the decoded public output of the merge guest.
type SketchJournal struct {
	NumRouters   uint32
	Commitments  []vmtree.Digest
	MergedDigest vmtree.Digest
	Queries      []netflow.FlowKey
	Estimates    []uint32
}

// ParseSketchJournal decodes the merge guest's journal.
func ParseSketchJournal(words []uint32) (*SketchJournal, error) {
	rd := wordReader{words: words}
	var j SketchJournal
	j.NumRouters = rd.word()
	if rd.err == nil && j.NumRouters > uint32(len(words)) {
		return nil, fmt.Errorf("%w: %d routers implausible", ErrBadJournal, j.NumRouters)
	}
	for r := uint32(0); r < j.NumRouters && rd.err == nil; r++ {
		var d vmtree.Digest
		rd.digest(&d)
		j.Commitments = append(j.Commitments, d)
	}
	rd.digest(&j.MergedDigest)
	q := rd.word()
	if rd.err == nil && q > uint32(len(words)) {
		return nil, fmt.Errorf("%w: %d queries implausible", ErrBadJournal, q)
	}
	for i := uint32(0); i < q && rd.err == nil; i++ {
		var kw [netflow.KeyWords]uint32
		for k := range kw {
			kw[k] = rd.word()
		}
		j.Queries = append(j.Queries, netflow.KeyFromWords(kw))
		j.Estimates = append(j.Estimates, rd.word())
	}
	if rd.err != nil {
		return nil, rd.err
	}
	if rd.off != len(words) {
		return nil, fmt.Errorf("%w: %d trailing words", ErrBadJournal, len(words)-rd.off)
	}
	return &j, nil
}
