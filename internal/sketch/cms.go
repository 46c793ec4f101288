// Package sketch implements Count-Min sketches over flow keys — the
// compact alternative to exact per-flow logging that the paper's
// design explicitly accommodates ("can use any logging or sketching
// algorithm", §1; cf. the sketching literature it cites: UnivMon,
// NitroSketch, TrustSketch). Routers may summarise an epoch as a
// sketch instead of raw records; sketches from many routers merge by
// counter addition, and the merge is provable in the zkVM (see
// internal/guest's sketch-merge program).
//
// The row hash is a multiply-mix over the key words using only
// operations the TinyRISC guest has (mul, xor, shift, andi), so the
// in-VM implementation is instruction-for-instruction the same
// arithmetic as this package.
package sketch

import (
	"errors"
	"fmt"

	"zkflow/internal/netflow"
)

// Default dimensions: 4 rows × 1024 counters ≈ 16 KiB per sketch,
// ε ≈ 2/1024 of the L1 mass per estimate at δ ≈ e^-4.
const (
	DefaultDepth = 4
	DefaultWidth = 1024
)

// fnvPrime drives the key mixing (FNV-1a's 32-bit prime).
const fnvPrime = 0x01000193

// rowSeeds are fixed odd per-row multipliers (public parameters).
var rowSeeds = [...]uint32{0x9e3779b1, 0x85ebca77, 0xc2b2ae3d, 0x27d4eb2f, 0x165667b1, 0xd3a2646d, 0xfd7046c5, 0xb55a4f09}

// MaxDepth is bounded by the fixed seed table.
const MaxDepth = len(rowSeeds)

// CMS is a Count-Min sketch. Counters are uint32 and saturate is NOT
// applied — totals are expected to stay well below 2^32 per epoch,
// matching the guest's wrapping arithmetic.
type CMS struct {
	Depth    int
	Width    int
	Counters []uint32 // row-major: Counters[r*Width + c]
}

// New creates an empty sketch. Width must be a power of two (the
// guest reduces a row index by masking with Andi, which is uniform only
// at a power of two) and depth at most MaxDepth.
func New(depth, width int) (*CMS, error) {
	if depth <= 0 || depth > MaxDepth {
		return nil, fmt.Errorf("sketch: depth %d out of range [1,%d]", depth, MaxDepth)
	}
	if width <= 0 || width&(width-1) != 0 {
		return nil, fmt.Errorf("sketch: width %d is not a power of two", width)
	}
	return &CMS{Depth: depth, Width: width, Counters: make([]uint32, depth*width)}, nil
}

// MustNew is New that panics on error.
func MustNew(depth, width int) *CMS {
	c, err := New(depth, width)
	if err != nil {
		panic(err)
	}
	return c
}

// mix folds the key words into a 32-bit value (FNV-1a style; wrapping
// arithmetic identical to the guest's).
func mix(key netflow.FlowKey) uint32 {
	h := uint32(0x811c9dc5)
	for _, w := range key.Words() {
		h ^= w
		h *= fnvPrime
	}
	return h
}

// RowIndex returns the counter index for key in row r.
func (s *CMS) RowIndex(r int, key netflow.FlowKey) int {
	h := mix(key) * rowSeeds[r]
	// Take high bits (multiply-shift) then reduce.
	return int((h >> 7) % uint32(s.Width))
}

// Add increments the key's counters by count.
func (s *CMS) Add(key netflow.FlowKey, count uint32) {
	for r := 0; r < s.Depth; r++ {
		s.Counters[r*s.Width+s.RowIndex(r, key)] += count
	}
}

// AddRecord folds one NetFlow record's packet count.
func (s *CMS) AddRecord(rec *netflow.Record) {
	s.Add(rec.Key, rec.Packets)
}

// Estimate returns the Count-Min estimate (an overestimate with high
// probability, never an underestimate).
func (s *CMS) Estimate(key netflow.FlowKey) uint32 {
	est := s.Counters[s.RowIndex(0, key)]
	for r := 1; r < s.Depth; r++ {
		if v := s.Counters[r*s.Width+s.RowIndex(r, key)]; v < est {
			est = v
		}
	}
	return est
}

// Errors returned by Merge and decoding.
var (
	ErrShape = errors.New("sketch: incompatible dimensions")
	ErrShort = errors.New("sketch: truncated encoding")
)

// Merge adds another sketch's counters into s (the linear property
// that makes distributed sketching work).
func (s *CMS) Merge(o *CMS) error {
	if s.Depth != o.Depth || s.Width != o.Width {
		return fmt.Errorf("%w: %dx%d vs %dx%d", ErrShape, s.Depth, s.Width, o.Depth, o.Width)
	}
	for i, v := range o.Counters {
		s.Counters[i] += v
	}
	return nil
}

// Clone deep-copies the sketch.
func (s *CMS) Clone() *CMS {
	out := &CMS{Depth: s.Depth, Width: s.Width, Counters: make([]uint32, len(s.Counters))}
	copy(out.Counters, s.Counters)
	return out
}

// L1 returns the total mass in one row (identical for every row in a
// pure Count-Min sketch, so row 0 is authoritative).
func (s *CMS) L1() uint64 {
	var total uint64
	for _, v := range s.Counters[:s.Width] {
		total += uint64(v)
	}
	return total
}

// Words returns the guest encoding: depth, width, then counters in
// row-major order.
func (s *CMS) Words() []uint32 {
	out := make([]uint32, 0, 2+len(s.Counters))
	out = append(out, uint32(s.Depth), uint32(s.Width))
	out = append(out, s.Counters...)
	return out
}

// FromWords inverts Words.
func FromWords(words []uint32) (*CMS, error) {
	if len(words) < 2 {
		return nil, ErrShort
	}
	depth, width := int(words[0]), int(words[1])
	s, err := New(depth, width)
	if err != nil {
		return nil, err
	}
	if len(words) != 2+depth*width {
		return nil, fmt.Errorf("%w: %d words for %dx%d", ErrShort, len(words), depth, width)
	}
	copy(s.Counters, words[2:])
	return s, nil
}

// HeavyHitter is a flow whose estimated count crosses a threshold.
type HeavyHitter struct {
	Key      netflow.FlowKey
	Estimate uint32
}

// HeavyHitters screens candidate keys (Count-Min cannot enumerate
// keys itself; candidates come from the flow population or a sample)
// and returns those with estimates >= threshold, highest first.
func (s *CMS) HeavyHitters(candidates []netflow.FlowKey, threshold uint32) []HeavyHitter {
	var out []HeavyHitter
	for _, k := range candidates {
		if est := s.Estimate(k); est >= threshold {
			out = append(out, HeavyHitter{Key: k, Estimate: est})
		}
	}
	// Insertion sort by estimate descending (candidate lists are small).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Estimate > out[j-1].Estimate; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// RowSeed exposes the public per-row multiplier (the guest compiler
// embeds these as immediates).
func RowSeed(r int) uint32 { return rowSeeds[r] }

// MixBasis exposes the FNV offset basis for the guest compiler.
const MixBasis uint32 = 0x811c9dc5

// MixPrime exposes the FNV prime for the guest compiler.
const MixPrime uint32 = fnvPrime
