package zkvm

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// SegmentReceipt proves one bounded-cycle slice of a guest run. Its
// seal has the same shape as a single-segment receipt, with the
// initial-state and halt rules replaced by entry/exit state binding
// and three extra sampled-check families for the boundary images.
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
}

// CompositeReceipt chains segment receipts into a proof of the whole
// run: exit(i) == entry(i+1), entry(0) == genesis, and the final
// segment halts publicly. The composite journal is the concatenation
// of the segment journals.
type CompositeReceipt struct {
	Segments []*SegmentReceipt
}

// AnyReceipt is the common surface of single-segment and composite
// receipts: the public statement plus binary encoding. Consumers that
// only chain journals and sizes (the ledger, the HTTP API) work with
// either form.
type AnyReceipt interface {
	// Image returns the guest image the receipt attests to.
	Image() ImageID
	// ExitStatus returns the guest's halt exit code.
	ExitStatus() uint32
	// JournalWords returns the public journal (read-only).
	JournalWords() []uint32
	// JournalBytes serialises the journal little-endian.
	JournalBytes() []byte
	// SealSize returns the proof size in bytes.
	SealSize() int
	// Size returns the full encoded receipt size in bytes.
	Size() int
	MarshalBinary() ([]byte, error)
}

// Image implements AnyReceipt.
func (r *Receipt) Image() ImageID { return r.ImageID }

// ExitStatus implements AnyReceipt.
func (r *Receipt) ExitStatus() uint32 { return r.ExitCode }

// JournalWords implements AnyReceipt.
func (r *Receipt) JournalWords() []uint32 { return r.Journal }

// Image implements AnyReceipt.
func (c *CompositeReceipt) Image() ImageID {
	if len(c.Segments) == 0 {
		return ImageID{}
	}
	return c.Segments[0].ImageID
}

// ExitStatus implements AnyReceipt.
func (c *CompositeReceipt) ExitStatus() uint32 {
	if len(c.Segments) == 0 {
		return 0
	}
	return c.Segments[len(c.Segments)-1].ExitCode
}

// JournalWords implements AnyReceipt: the concatenated segment
// journals.
func (c *CompositeReceipt) JournalWords() []uint32 {
	n := 0
	for _, s := range c.Segments {
		n += len(s.Journal)
	}
	out := make([]uint32, 0, n)
	for _, s := range c.Segments {
		out = append(out, s.Journal...)
	}
	return out
}

// JournalBytes implements AnyReceipt.
func (c *CompositeReceipt) JournalBytes() []byte { return wordsToBytes(c.JournalWords()) }

// sealSize is the segment's proof size: the seal, the continuation
// checks, both boundary states and the journal slice.
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
	return n
}

// SealSize implements AnyReceipt: the sum of the segment proof sizes.
func (c *CompositeReceipt) SealSize() int {
	n := 0
	for _, sr := range c.Segments {
		n += sr.sealSize()
	}
	return n
}

// Size implements AnyReceipt.
func (c *CompositeReceipt) Size() int {
	n := 8
	for _, sr := range c.Segments {
		// What sealSize leaves out of a segment's encoding: image ID,
		// index, final flag, exit code, the journal and three check
		// counts.
		n += 32 + 4 + 1 + 4 + 4 + 3*4 + sr.sealSize()
	}
	return n
}

// NumSegments returns the segment count.
func (c *CompositeReceipt) NumSegments() int { return len(c.Segments) }

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

// writeSegment appends one segment receipt: the unit a composite
// repeats. A farm worker ships its segment as a one-segment composite,
// so an assembled composite carries the same segment bytes the workers
// produced.
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
	return sr
}

// MarshalBinary encodes the composite receipt.
func (c *CompositeReceipt) MarshalBinary() ([]byte, error) {
	w := &bwriter{buf: make([]byte, 0, c.Size())}
	w.u32(magicComposite)
	w.u32(uint32(len(c.Segments)))
	for _, sr := range c.Segments {
		writeSegment(w, sr)
	}
	return w.buf, w.err
}

// UnmarshalComposite decodes a composite receipt produced by
// MarshalBinary.
func UnmarshalComposite(data []byte) (*CompositeReceipt, error) {
	rd := &breader{buf: data}
	if rd.u32() != magicComposite {
		return nil, errors.New("zkvm: bad composite receipt magic")
	}
	c := &CompositeReceipt{Segments: make([]*SegmentReceipt, rd.count(minOpeningBytes))}
	for si := range c.Segments {
		c.Segments[si] = readSegment(rd)
		if rd.err != nil {
			return nil, rd.err
		}
	}
	if rd.err != nil {
		return nil, rd.err
	}
	if rd.off != len(data) {
		return nil, errors.New("zkvm: trailing bytes after composite receipt")
	}
	return c, nil
}

// UnmarshalAnyReceipt decodes a receipt or a composite receipt by its
// magic.
func UnmarshalAnyReceipt(data []byte) (AnyReceipt, error) {
	if len(data) < 4 {
		return nil, errTruncated
	}
	switch magic := binary.LittleEndian.Uint32(data); magic {
	case magicReceipt:
		return UnmarshalReceipt(data)
	case magicComposite:
		return UnmarshalComposite(data)
	default:
		return nil, fmt.Errorf("zkvm: unknown receipt magic %#x", magic)
	}
}

// VerifyAny verifies a receipt or a composite receipt against the guest
// program.
func VerifyAny(prog *Program, r AnyReceipt, opts VerifyOptions) error {
	switch t := r.(type) {
	case *Receipt:
		return Verify(prog, t, opts)
	case *CompositeReceipt:
		return VerifyComposite(prog, t, opts)
	default:
		return vErr("unknown receipt type %T", r)
	}
}
