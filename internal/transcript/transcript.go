// Package transcript implements a Fiat–Shamir transcript: a running
// SHA-256 state into which the prover absorbs every commitment, and out
// of which both parties deterministically derive challenges. The
// non-interactive proofs in this repository (zkVM seals, FRI, STARK)
// are all sound only if every prover message is absorbed before the
// challenge that depends on it — the API is ordered to make that the
// natural usage.
package transcript

import (
	"crypto/sha256"
	"encoding/binary"

	"zkflow/internal/field"
)

// Transcript is a deterministic challenge oracle. Not safe for
// concurrent use; clone per goroutine if needed.
type Transcript struct {
	state [32]byte
	// counter separates successive challenges squeezed between absorbs.
	counter uint64
}

// New creates a transcript bound to a protocol label. Distinct labels
// yield independent oracles (domain separation between proof types).
func New(label string) *Transcript {
	t := &Transcript{}
	t.state = sha256.Sum256([]byte("zkflow/transcript/v1/" + label))
	return t
}

// Clone returns an independent copy of the transcript state.
func (t *Transcript) Clone() *Transcript {
	c := *t
	return &c
}

// Append absorbs labelled data. The label and an explicit length
// prefix are hashed along with the data so adjacent messages cannot be
// re-split by a malicious prover.
func (t *Transcript) Append(label string, data []byte) {
	h := sha256.New()
	h.Write(t.state[:])
	var lens [16]byte
	binary.BigEndian.PutUint64(lens[:8], uint64(len(label)))
	binary.BigEndian.PutUint64(lens[8:], uint64(len(data)))
	h.Write(lens[:])
	h.Write([]byte(label))
	h.Write(data)
	h.Sum(t.state[:0])
	t.counter = 0
}

// AppendUint64 absorbs a labelled integer.
func (t *Transcript) AppendUint64(label string, v uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	t.Append(label, buf[:])
}

// AppendElems absorbs labelled field elements.
func (t *Transcript) AppendElems(label string, xs ...field.Elem) {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.BigEndian.PutUint64(buf[8*i:], uint64(x))
	}
	t.Append(label, buf)
}

// squeeze produces one 32-byte block keyed by the counter.
func (t *Transcript) squeeze(label string) [32]byte {
	h := sha256.New()
	h.Write(t.state[:])
	var ctr [8]byte
	binary.BigEndian.PutUint64(ctr[:], t.counter)
	t.counter++
	h.Write(ctr[:])
	h.Write([]byte("challenge:" + label))
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// ChallengeElem derives a uniform Goldilocks element by rejection
// sampling (bias-free).
func (t *Transcript) ChallengeElem(label string) field.Elem {
	for {
		block := t.squeeze(label)
		for off := 0; off+8 <= len(block); off += 8 {
			v := binary.BigEndian.Uint64(block[off:])
			if v < field.Modulus {
				return field.Elem(v)
			}
		}
	}
}

// ChallengeElems derives n field elements.
func (t *Transcript) ChallengeElems(label string, n int) []field.Elem {
	out := make([]field.Elem, n)
	for i := range out {
		out[i] = t.ChallengeElem(label)
	}
	return out
}

// ChallengeIndices derives n indices in [0, bound), possibly with
// repetitions, for query-position sampling. bound must be positive.
func (t *Transcript) ChallengeIndices(label string, n, bound int) []int {
	if bound <= 0 {
		panic("transcript: non-positive index bound")
	}
	out := make([]int, 0, n)
	// Rejection sampling over the smallest power-of-two mask covering
	// bound keeps the distribution uniform.
	mask := uint64(1)
	for mask < uint64(bound) {
		mask <<= 1
	}
	mask--
	for len(out) < n {
		block := t.squeeze(label)
		for off := 0; off+8 <= len(block) && len(out) < n; off += 8 {
			v := binary.BigEndian.Uint64(block[off:]) & mask
			if v < uint64(bound) {
				out = append(out, int(v))
			}
		}
	}
	return out
}
