// Package hashk is the zero-allocation SHA-256 kernel under every
// Merkle commitment in the repo. Node hashing is about half of a zkVM
// seal and leaf hashing most of the rest (EXPERIMENTS.md E21), so the
// kernel's one job is to keep everything but the compression function
// out of that loop:
//
//   - Node/HashLevel hash internal tree nodes through a fixed-size
//     stack buffer and sha256.Sum256, which the compiler keeps off the
//     heap — zero allocations per node at any tree size. HashLevel
//     reduces a whole level (or a block's slice of one) per call, so
//     the buffer and its prefix byte are set up once per level.
//   - Leaf/Leaf2 hash a domain-prefixed leaf payload, in one or two
//     parts, the same way: payloads under 128 bytes — every leaf the
//     zkVM prover commits (an exec leaf's row and three witness words,
//     108 bytes salted, is the widest), STARK rows of up to 15 columns —
//     go through a 128-byte stack buffer, payloads up to ScratchBytes
//     through a 512-byte one (Go zeroes a stack buffer at every
//     declaration, so the small tier saves ~400 bytes of memclr per
//     leaf), and only oversized leaves fall back to a streaming hash.
//
// The zkVM's block commit assembles its (prefix || salt || records)
// message in place and calls sha256.Sum256 itself; Leaf2 is the same
// hash for callers holding the two parts separately (the verifier).
//
// The functions are generic over ~[32]byte so merkle.Hash (and any
// other 32-byte digest type) flows through without copies or import
// cycles. All outputs are bit-identical to the naive sha256.New
// formulation — the golden receipt vector and the parallel-determinism
// tests pin that.
package hashk

import "crypto/sha256"

// Domain-separation prefixes of the merkle package's tree convention:
// a leaf hash is SHA-256(0x00 || payload), an internal node is
// SHA-256(0x01 || left || right). Kept here so the kernel can hash
// whole levels without calling back into merkle.
const (
	LeafPrefix byte = 0x00
	NodePrefix byte = 0x01
)

// ScratchBytes is the stack scratch size of the leaf fast path: leaf
// payloads up to this size (after the domain prefix) hash with zero
// allocations: STARK LDE rows (8*cols bytes) of up to 63 columns, for
// one.
const ScratchBytes = 512

// smallScratchBytes is the first scratch tier (see the package
// comment); every leaf committed in this repo fits it.
const smallScratchBytes = 128

// Node hashes two child digests with the node domain prefix:
// SHA-256(0x01 || left || right). Zero allocations.
func Node[H ~[32]byte](left, right H) H {
	var buf [65]byte
	buf[0] = NodePrefix
	copy(buf[1:33], left[:])
	copy(buf[33:65], right[:])
	return H(sha256.Sum256(buf[:]))
}

// HashLevel reduces one whole tree level: dst[i] = Node(src[2i],
// src[2i+1]). len(src) must be exactly 2*len(dst). Zero allocations
// regardless of level width, so a full tree reduction costs no
// allocator traffic at all. Callers fan chunks of a level out across
// workers by slicing dst and src consistently.
func HashLevel[H ~[32]byte](dst, src []H) {
	if len(src) != 2*len(dst) {
		panic("hashk: HashLevel src must be exactly twice dst")
	}
	var buf [65]byte
	buf[0] = NodePrefix
	for i := range dst {
		copy(buf[1:33], src[2*i][:])
		copy(buf[33:65], src[2*i+1][:])
		dst[i] = H(sha256.Sum256(buf[:]))
	}
}

// Leaf hashes a leaf payload with the leaf domain prefix:
// SHA-256(0x00 || data). Zero allocations for payloads up to
// ScratchBytes-1 bytes; larger payloads stream through a heap hasher.
func Leaf[H ~[32]byte](data []byte) H {
	if len(data) < smallScratchBytes {
		var buf [smallScratchBytes]byte
		buf[0] = LeafPrefix
		n := copy(buf[1:], data)
		return H(sha256.Sum256(buf[:1+n]))
	}
	if len(data) < ScratchBytes {
		var buf [ScratchBytes]byte
		buf[0] = LeafPrefix
		n := copy(buf[1:], data)
		return H(sha256.Sum256(buf[:1+n]))
	}
	return leafStream[H](data, nil)
}

// Leaf2 hashes the concatenation of two payload parts under the leaf
// prefix: SHA-256(0x00 || a || b). This is the salted-leaf shape of
// the zkVM commitment (salt || records) hashed without materializing
// the concatenation. Zero allocations on the fast path.
func Leaf2[H ~[32]byte](a, b []byte) H {
	if len(a)+len(b) < smallScratchBytes {
		var buf [smallScratchBytes]byte
		buf[0] = LeafPrefix
		n := 1 + copy(buf[1:], a)
		n += copy(buf[n:], b)
		return H(sha256.Sum256(buf[:n]))
	}
	if len(a)+len(b) < ScratchBytes {
		var buf [ScratchBytes]byte
		buf[0] = LeafPrefix
		n := 1 + copy(buf[1:], a)
		n += copy(buf[n:], b)
		return H(sha256.Sum256(buf[:n]))
	}
	return leafStream[H](a, b)
}

// leafStream is the slow path for oversized leaves.
func leafStream[H ~[32]byte](a, b []byte) H {
	d := sha256.New()
	d.Write([]byte{LeafPrefix})
	d.Write(a)
	d.Write(b)
	var out H
	d.Sum(out[:0])
	return out
}
