package zkvm

import (
	"errors"
	"fmt"

	"zkflow/internal/merkle"
)

// ImportCheck is a sampled entry-image import check: program-order log
// entry i must be a synthetic import write of entry-image pair i.
type ImportCheck struct {
	MemProg Opening // the leaf holding memProg[i]
	Img     Opening // the leaf holding entry-image pair i
}

// ExitCheck is a sampled exit-image membership check: exit-image pair
// j must equal the value after the last sorted-log access of its
// address. Pos is the prover-supplied sorted-log position of that last
// access; the entry at Pos+1 (when it exists) proves last-ness, given
// the separately-sampled sorted-order invariant.
type ExitCheck struct {
	Img  Opening   // the leaf holding exit-image pair j
	Pos  uint32    // last-access position in the sorted log
	Sort []Opening // the leaves holding memSort[Pos] and, if Pos+1 < NumMem, memSort[Pos+1]
}

// CoverCheck is the converse sampled check: if sorted-log entry i is
// the last access of its address and leaves a nonzero value, that
// (addr, val) must appear in the exit image at prover-supplied index
// ExitIdx. Together with ExitCheck this pins the exit image to exactly
// the live nonzero words (up to sampling soundness).
type CoverCheck struct {
	Entries []Opening // the leaves holding memSort[i] and, if i+1 < NumMem, memSort[i+1]
	HasImg  bool
	ExitIdx uint32
	Img     Opening // the leaf holding exit-image pair ExitIdx, present iff last and val != 0
}

// SegmentReceipt proves one bounded-cycle slice of a guest run: its
// seal binds the slice's trace to the entry and exit states, and three
// extra sampled-check families bind the boundary images. A segment
// entered at genesis imports nothing, and a final one leaves no image.
type SegmentReceipt struct {
	ImageID  ImageID
	Index    uint32
	Final    bool
	ExitCode uint32   // meaningful only on the final segment
	Journal  []uint32 // this segment's journal slice
	Entry    SegmentState
	Exit     SegmentState // zero value on the final segment
	Seal     Seal

	ImportChecks []ImportCheck
	ExitChecks   []ExitCheck
	CoverChecks  []CoverCheck

	// Proofs authenticate every leaf the checks open: one multiproof per
	// tree, indexed proofExec..proofExit.
	Proofs [numTrees]merkle.MultiProof
}

// Receipt is the verifiable record of a guest run, the same shape as a
// RISC Zero composite receipt: a chain of segment receipts with
// exit(i) == entry(i+1), entry(0) == genesis, and a final segment that
// halts publicly. A run proved without SegmentCycles is one segment.
// The journal is the concatenation of the segment journals.
type Receipt struct {
	Segments []*SegmentReceipt
}

// CompositeReceipt is Receipt under the name bench/ compiles against.
type CompositeReceipt = Receipt

// AnyReceipt is the surface of a Receipt that bench/ is written
// against — through core.ProveFunc and core.AggregationResult — the
// public statement plus the binary encoding. *Receipt is its only
// implementation.
type AnyReceipt interface {
	// Image returns the guest image the receipt attests to.
	Image() ImageID
	// ExitStatus returns the guest's halt exit code.
	ExitStatus() uint32
	// JournalWords returns the public journal.
	JournalWords() []uint32
	// SealSize returns the proof size in bytes.
	SealSize() int
	// Size returns the full encoded receipt size in bytes.
	Size() int
	MarshalBinary() ([]byte, error)
}

// Image returns the guest image the receipt attests to.
func (r *Receipt) Image() ImageID {
	if len(r.Segments) == 0 {
		return ImageID{}
	}
	return r.Segments[0].ImageID
}

// ExitStatus returns the guest's halt exit code.
func (r *Receipt) ExitStatus() uint32 {
	if len(r.Segments) == 0 {
		return 0
	}
	return r.Segments[len(r.Segments)-1].ExitCode
}

// JournalWords returns the public journal: the concatenated segment
// journals.
func (r *Receipt) JournalWords() []uint32 {
	var out []uint32
	for _, s := range r.Segments {
		out = append(out, s.Journal...)
	}
	return out
}

// sealSize is the segment's proof size: the seal, the continuation
// checks, the multiproofs, both boundary states and the journal slice.
func (sr *SegmentReceipt) sealSize() int {
	n := sr.Seal.Size() + 2*stateBytes + 4*len(sr.Journal)
	for i := range sr.ImportChecks {
		n += sr.ImportChecks[i].MemProg.size() + sr.ImportChecks[i].Img.size()
	}
	for i := range sr.ExitChecks {
		e := &sr.ExitChecks[i]
		n += e.Img.size() + 4 + 1 + openingsSize(e.Sort)
	}
	for i := range sr.CoverChecks {
		cc := &sr.CoverChecks[i]
		n += 1 + openingsSize(cc.Entries) + 1
		if cc.HasImg {
			n += 4 + cc.Img.size()
		}
	}
	for k := range sr.Proofs {
		n += 4 + 32*len(sr.Proofs[k].Nodes)
	}
	return n
}

// SealSize returns the proof size in bytes: the sum of the segment
// proof sizes.
func (r *Receipt) SealSize() int {
	n := 0
	for _, sr := range r.Segments {
		n += sr.sealSize()
	}
	return n
}

// Size returns the full encoded receipt size in bytes.
func (r *Receipt) Size() int {
	n := 8
	for _, sr := range r.Segments {
		// What sealSize leaves out of a segment's encoding: image ID,
		// index, final flag, exit code, the journal and three check
		// counts.
		n += 32 + 4 + 1 + 4 + 4 + 3*4 + sr.sealSize()
	}
	return n
}

// NumSegments returns the segment count.
func (r *Receipt) NumSegments() int { return len(r.Segments) }

func (w *bwriter) state(s *SegmentState) { w.raw(encodeState(s)) }

func (rd *breader) state() SegmentState {
	b := rd.raw(stateBytes)
	if rd.err != nil {
		return SegmentState{}
	}
	s, err := decodeState(b)
	if err != nil {
		rd.err = err
	}
	return s
}

// writeSegment appends one segment receipt: the unit a receipt
// repeats.
func writeSegment(w *bwriter, sr *SegmentReceipt) {
	w.raw(sr.ImageID[:])
	w.u32(sr.Index)
	w.flag(sr.Final)
	w.u32(sr.ExitCode)
	w.words(sr.Journal)
	w.state(&sr.Entry)
	w.state(&sr.Exit)
	writeSeal(w, &sr.Seal)
	w.u32(uint32(len(sr.ImportChecks)))
	for i := range sr.ImportChecks {
		w.opening(&sr.ImportChecks[i].MemProg)
		w.opening(&sr.ImportChecks[i].Img)
	}
	w.u32(uint32(len(sr.ExitChecks)))
	for i := range sr.ExitChecks {
		e := &sr.ExitChecks[i]
		w.opening(&e.Img)
		w.u32(e.Pos)
		w.span(e.Sort)
	}
	w.u32(uint32(len(sr.CoverChecks)))
	for i := range sr.CoverChecks {
		cc := &sr.CoverChecks[i]
		w.span(cc.Entries)
		w.flag(cc.HasImg)
		if cc.HasImg {
			w.u32(cc.ExitIdx)
			w.opening(&cc.Img)
		}
	}
	for k := range sr.Proofs {
		w.multiproof(&sr.Proofs[k])
	}
}

// readSegment decodes what writeSegment wrote.
func readSegment(rd *breader) *SegmentReceipt {
	sr := &SegmentReceipt{}
	copy(sr.ImageID[:], rd.raw(32))
	sr.Index = rd.u32()
	sr.Final = rd.flag()
	sr.ExitCode = rd.u32()
	sr.Journal = rd.words()
	sr.Entry = rd.state()
	sr.Exit = rd.state()
	sr.Seal = readSeal(rd)
	sr.ImportChecks = make([]ImportCheck, rd.count(minOpeningBytes))
	for i := range sr.ImportChecks {
		sr.ImportChecks[i].MemProg = rd.opening()
		sr.ImportChecks[i].Img = rd.opening()
	}
	sr.ExitChecks = make([]ExitCheck, rd.count(minOpeningBytes))
	for i := range sr.ExitChecks {
		e := &sr.ExitChecks[i]
		e.Img = rd.opening()
		e.Pos = rd.u32()
		e.Sort = rd.span()
	}
	sr.CoverChecks = make([]CoverCheck, rd.count(minOpeningBytes))
	for i := range sr.CoverChecks {
		cc := &sr.CoverChecks[i]
		cc.Entries = rd.span()
		cc.HasImg = rd.flag()
		if cc.HasImg {
			cc.ExitIdx = rd.u32()
			cc.Img = rd.opening()
		}
	}
	for k := range sr.Proofs {
		sr.Proofs[k] = rd.multiproof()
	}
	return sr
}

// MarshalBinary encodes the receipt.
func (r *Receipt) MarshalBinary() ([]byte, error) {
	w := &bwriter{buf: make([]byte, 0, r.Size())}
	w.u32(magicReceipt)
	w.u32(uint32(len(r.Segments)))
	for _, sr := range r.Segments {
		writeSegment(w, sr)
	}
	return w.buf, w.err
}

// UnmarshalReceipt decodes a receipt produced by MarshalBinary.
func UnmarshalReceipt(data []byte) (*Receipt, error) {
	rd := &breader{buf: data}
	magic := rd.u32()
	if rd.err != nil {
		return nil, rd.err
	}
	if magic != magicReceipt {
		return nil, fmt.Errorf("zkvm: unknown receipt magic %#x", magic)
	}
	r := &Receipt{Segments: make([]*SegmentReceipt, rd.count(minOpeningBytes))}
	for i := range r.Segments {
		r.Segments[i] = readSegment(rd)
		if rd.err != nil {
			return nil, rd.err
		}
	}
	if rd.err != nil {
		return nil, rd.err
	}
	if rd.off != len(data) {
		return nil, errors.New("zkvm: trailing bytes after receipt")
	}
	return r, nil
}

// UnmarshalAnyReceipt is UnmarshalReceipt behind the AnyReceipt
// interface.
func UnmarshalAnyReceipt(data []byte) (AnyReceipt, error) {
	r, err := UnmarshalReceipt(data)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// VerifyAny is Verify behind the AnyReceipt interface.
func VerifyAny(prog *Program, r AnyReceipt, opts VerifyOptions) error {
	rr, _ := r.(*Receipt)
	return Verify(prog, rr, opts)
}
