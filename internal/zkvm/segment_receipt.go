package zkvm

import (
	"errors"
	"fmt"

	"zkflow/internal/merkle"
)

// SegmentReceipt proves one bounded-cycle slice of a guest run: its
// seal binds the slice's trace to the entry and exit states, and its
// memory argument balances the slice's log against both boundary
// images. A segment entered at genesis reads an empty image, and a
// final one closes its argument on a final table of its own.
type SegmentReceipt struct {
	ImageID  ImageID
	Index    uint32
	Final    bool
	ExitCode uint32   // meaningful only on the final segment
	Journal  []uint32 // this segment's journal slice
	Entry    SegmentState
	Exit     SegmentState // zero value on the final segment
	Seal     Seal

	// Proofs authenticate every leaf the checks open: one multiproof per
	// tree, indexed proofExec..proofInitProd.
	Proofs [numTrees]merkle.MultiProof
}

// Receipt is the verifiable record of a guest run, the same shape as a
// RISC Zero composite receipt: a chain of segment receipts with
// exit(i) == entry(i+1), entry(0) == genesis, and a final segment that
// halts publicly. A run no longer than its cut is one segment.
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

// JournalWords returns the public journal: the concatenated segment
// journals.
func (r *Receipt) JournalWords() []uint32 {
	var out []uint32
	for _, s := range r.Segments {
		out = append(out, s.Journal...)
	}
	return out
}

// SealSize returns the proof size in bytes: the encoding less the
// receipt's magic and segment count and, of each segment, its image ID,
// index, final flag, exit code and journal count. What is left is each
// segment's seal, multiproofs, boundary states and journal words.
func (r *Receipt) SealSize() int {
	return r.Size() - 8 - (32+4+1+4+4)*len(r.Segments)
}

// Size returns the full encoded receipt size in bytes: the encoding,
// counted rather than written.
func (r *Receipt) Size() int {
	w := &bwriter{counting: true}
	writeReceipt(w, r)
	return w.n
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
	writeSeal(w, &sr.Seal, sr.Entry.MemLen)
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
	sr.Seal = readSeal(rd, sr.Entry.MemLen)
	for k := range sr.Proofs {
		sr.Proofs[k] = rd.multiproof()
	}
	return sr
}

// writeReceipt appends the receipt: its magic, its segment count and
// its segments.
func writeReceipt(w *bwriter, r *Receipt) {
	w.u32(magicReceipt)
	w.u32(uint32(len(r.Segments)))
	for _, sr := range r.Segments {
		writeSegment(w, sr)
	}
}

// MarshalBinary encodes the receipt into one buffer, allocated at the
// exact size.
func (r *Receipt) MarshalBinary() ([]byte, error) {
	w := &bwriter{buf: make([]byte, 0, r.Size())}
	writeReceipt(w, r)
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
