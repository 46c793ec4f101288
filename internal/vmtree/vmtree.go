// Package vmtree defines the Merkle tree convention shared between
// zkVM guests and the host: SHA-256 over little-endian packed uint32
// words, leaves hashed directly from entry words, internal nodes from
// the concatenation of their children's digest words, and leaf levels
// padded to a power of two with all-zero digests.
//
// Guests rebuild this tree with the SysHash precompile (the dominant
// proving cost, as the paper reports for its in-zkVM Merkle updates);
// the host uses this package to predict and cross-check the roots
// guests commit. Domain separation between leaves and nodes comes from
// input length: leaves hash entry-width payloads, nodes hash exactly 16
// words.
package vmtree

import (
	"encoding/binary"

	"zkflow/internal/hashk"
	"zkflow/internal/merkle"
)

// Digest is a SHA-256 digest as 8 little-endian words — the form
// guests hold digests in memory.
type Digest [8]uint32

// Zero is the padding digest for absent leaves.
var Zero Digest

// Bytes converts the digest to its byte form.
func (d Digest) Bytes() merkle.Hash {
	var out merkle.Hash
	for i, w := range d {
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	return out
}

// FromBytes converts a byte digest to word form.
func FromBytes(h merkle.Hash) Digest {
	var d Digest
	for i := range d {
		d[i] = binary.LittleEndian.Uint32(h[4*i:])
	}
	return d
}

// hashScratchWords is the stack fast-path bound of HashWords: inputs
// up to this many words pack into a stack buffer and hash with zero
// allocations. CLog entry leaves and internal nodes are far below it.
const hashScratchWords = 128

// HashWords hashes a word slice (little-endian packed), exactly as the
// SysHash precompile does. Zero allocations for inputs up to
// hashScratchWords words.
func HashWords(words []uint32) Digest {
	if len(words) <= hashScratchWords {
		var scratch [4 * hashScratchWords]byte
		return hashPacked(scratch[:], words)
	}
	return hashPacked(make([]byte, 4*len(words)), words)
}

func hashPacked(buf []byte, words []uint32) Digest {
	buf = buf[:4*len(words)]
	for i, w := range words {
		binary.LittleEndian.PutUint32(buf[4*i:], w)
	}
	return FromBytes(hashk.Sum(buf))
}

// Node hashes two child digests (16 words) with zero allocations —
// host-side root predictions fold whole trees through this.
func Node(l, r Digest) Digest {
	var buf [64]byte
	for i, w := range l {
		binary.LittleEndian.PutUint32(buf[4*i:], w)
	}
	for i, w := range r {
		binary.LittleEndian.PutUint32(buf[32+4*i:], w)
	}
	return FromBytes(hashk.Sum(buf[:]))
}

// LeafDigests hashes each entry's words into its leaf digest.
func LeafDigests(entries [][]uint32) []Digest {
	out := make([]Digest, len(entries))
	for i, e := range entries {
		out[i] = HashWords(e)
	}
	return out
}

// RootFromDigests folds leaf digests to the root: pad to a power of
// two with Zero, then reduce pairwise. An empty input has root Zero.
func RootFromDigests(digests []Digest) Digest {
	return foldChunk(digests, 0, padded(len(digests)))
}

// padded is the size of a leaf level of n digests: the least power of
// two that holds them.
func padded(n int) int {
	size := 1
	for size < n {
		size <<= 1
	}
	return size
}

// reduce folds a power-of-two level to its root, in place.
func reduce(level []Digest) Digest {
	for len(level) > 1 {
		next := level[:len(level)/2]
		for i := range next {
			next[i] = Node(level[2*i], level[2*i+1])
		}
		level = next
	}
	return level[0]
}

// Root hashes entries and folds to the root.
func Root(entries [][]uint32) Digest {
	return RootFromDigests(LeafDigests(entries))
}

// SubRoots splits the (implicitly Zero-padded) leaf level into aligned
// power-of-two chunks and folds each independently, returning the root
// of every sub-tree. shards is clamped to a power of two no larger
// than the padded leaf count, so the chunks are exactly the sub-trees
// at one fixed level of the full tree and
// MergeRoots(SubRoots(d, s)) == RootFromDigests(d) for every s: the
// sub-trees can be hashed independently, on different goroutines, and
// merged by a cheap top-level fold.
func SubRoots(digests []Digest, shards int) []Digest {
	size := padded(len(digests))
	if shards < 1 {
		shards = 1
	}
	s := 1
	for s*2 <= shards && s*2 <= size {
		s <<= 1
	}
	width := size / s
	out := make([]Digest, s)
	for i := range out {
		out[i] = foldChunk(digests, i*width, width)
	}
	return out
}

// foldChunk folds the width leaves starting at off (Zero-padded past
// the end of digests) to their sub-tree root. width is a power of two.
func foldChunk(digests []Digest, off, width int) Digest {
	level := make([]Digest, width)
	if off < len(digests) {
		copy(level, digests[off:])
	}
	return reduce(level)
}

// MergeRoots folds aligned sub-tree roots (as returned by SubRoots,
// power-of-two many) to the global root.
func MergeRoots(roots []Digest) Digest {
	if len(roots) == 0 {
		return Zero
	}
	return reduce(append([]Digest(nil), roots...))
}
