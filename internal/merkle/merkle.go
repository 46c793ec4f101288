// Package merkle implements SHA-256 Merkle trees with inclusion proofs,
// multiproofs and O(log n) incremental updates.
//
// Trees are the authenticated data structure at the heart of the system
// (paper §4.1): CLog entries are leaves, the root is a compact
// commitment, and both the aggregation and query guests check or rebuild
// it. The same trees commit zkVM execution traces and FRI layers.
//
// A leaf hash is SHA-256(0x00 || data); an internal node is one
// SHA-256 compression of left || right from a fixed node IV, the
// chaining value after the tag block 0x01 || "zkflow/merkle/node/v1" ||
// zero fill (hashk). A leaf's first block starts with 0x00 and the tag
// block with 0x01, so a leaf can never be confused with an internal node
// short of a compression-function collision (second-preimage
// hardening). Leaf counts need not be powers of two; the tree pads with
// a fixed empty hash.
package merkle

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"zkflow/internal/hashk"
	"zkflow/internal/par"
	"zkflow/internal/slab"
)

// Hash is a SHA-256 digest.
type Hash [32]byte

// String renders the first 8 bytes of the digest in hex. It avoids
// fmt so hot-path logging/snapshotting does not pay reflection costs.
func (h Hash) String() string { return hex.EncodeToString(h[:8]) }

// MarshalJSON encodes the hash as a hex string. One fixed-size
// allocation (the returned buffer), no fmt machinery.
func (h Hash) MarshalJSON() ([]byte, error) {
	out := make([]byte, 2*len(h)+2)
	out[0] = '"'
	hex.Encode(out[1:], h[:])
	out[len(out)-1] = '"'
	return out, nil
}

// UnmarshalJSON decodes a hex string hash.
func (h *Hash) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return fmt.Errorf("merkle: bad hash hex: %w", err)
	}
	if len(b) != 32 {
		return fmt.Errorf("merkle: hash has %d bytes", len(b))
	}
	copy(h[:], b)
	return nil
}

var (
	// ErrIndexOutOfRange reports a leaf index beyond the tree.
	ErrIndexOutOfRange = errors.New("merkle: leaf index out of range")
	// ErrProofInvalid reports a proof that does not authenticate its
	// leaves.
	ErrProofInvalid = errors.New("merkle: malformed proof")
)

// emptyHash pads trees whose leaf count is not a power of two.
var emptyHash = Hash(sha256.Sum256([]byte("zkflow/merkle/empty-leaf/v1")))

// maxDepth bounds tree height (leaf counts fit in an int).
const maxDepth = 63

// padHashes[l] is the root of an all-padding subtree of height l:
// padHashes[0] is the empty leaf hash and each level doubles it.
// Computed once at init (2 KB), it lets tree building skip hashing
// every node whose subtree is entirely padding — for a leaf count just
// above a power of two that is nearly half of all node hashes.
var padHashes = func() [maxDepth + 1]Hash {
	var out [maxDepth + 1]Hash
	out[0] = emptyHash
	for l := 1; l <= maxDepth; l++ {
		out[l] = hashk.Node(out[l-1], out[l-1])
	}
	return out
}()

// PaddingHash returns the hash of an all-padding subtree of height
// level (level 0 is the empty leaf hash).
func PaddingHash(level int) Hash { return padHashes[level] }

// LeafHash hashes raw leaf data with the leaf domain prefix.
// Zero-allocation for payloads under hashk.ScratchBytes.
func LeafHash(data []byte) Hash { return hashk.Leaf[Hash](data) }

// NodeHash combines two child hashes into their parent: one
// compression of left || right from the node IV. Zero-allocation.
func NodeHash(left, right Hash) Hash { return hashk.Node(left, right) }

// Tree is an immutable-by-default Merkle tree (Update mutates in place).
type Tree struct {
	nLeaves int
	// levels[0] is the padded leaf level; levels[len-1] is [root].
	levels [][]Hash
	// arena is the flat backing store of levels, recyclable via Release.
	arena []Hash
}

// arenas recycles node arenas across tree builds: an arena of
// 2^(depth+1)-1 nodes lands in the 2^(depth+1) class, so a build gets
// back an arena of its own size class and a seal's large and small
// trees never evict each other. A build writes every arena slot (real
// nodes are hashed or copied in, padding nodes come from the padding
// table), so a dirty recycled arena produces a node-for-node identical
// tree — TestReleasedArenaReuse pins that. Large proofs build tens of
// MB of tree per seal; reusing the arena keeps that out of the
// allocator and skips the runtime's zeroing of fresh large objects.
var arenas slab.Pool[Hash]

// Release returns the tree's node storage to an internal pool for
// reuse by later builds and leaves the tree unusable (any further
// method call panics). Call it only when nothing aliases the tree's
// hashes; proofs are safe — Prove and Leaf copy.
func (t *Tree) Release() {
	if t.arena == nil {
		return
	}
	arenas.Put(t.arena)
	t.arena = nil
	t.levels = nil
}

// BuildHashes constructs a tree over precomputed leaf hashes.
// An empty input produces a one-leaf tree over the empty hash.
func BuildHashes(leafHashes []Hash) *Tree {
	return BuildLeaves(len(leafHashes), func(leaves []Hash) {
		copy(leaves, leafHashes)
	})
}

// BuildLeaves constructs a tree over n leaf hashes that fill writes
// directly into the tree's arena-backed leaf level (fill may fan out
// across goroutines; it must fill all n entries before returning),
// then reduces the blocks on a crew of par.Workers(). Callers that can
// produce leaves block by block drive a Builder themselves and skip
// the separate fill pass.
func BuildLeaves(n int, fill func(leaves []Hash)) *Tree {
	b := NewBuilder(n)
	fill(b.t.levels[0][:n])
	par.Each(par.Workers(), b.Blocks(), b.Reduce)
	return b.Finish()
}

// blockLog is log2 of the leaves in one build block. A 1024-leaf block
// is 32 KB of leaf hashes and as much again of internal nodes: small
// enough that a worker reduces it to its subtree root while the leaves
// it has just written are still in its cache, large enough that the
// levels above the block roots — the only serial part of a build — are
// a thousandth of the tree.
const blockLog = 10

// Builder assembles a tree out of aligned power-of-two leaf blocks.
// Fill the slots Leaves(i) returns, then Reduce(i); distinct blocks
// touch disjoint arena ranges, so any number of goroutines may work
// on distinct blocks at once. Finish hashes the few levels above the
// block roots and hands the tree over.
//
// All node storage comes from one flat arena (2*size-1 hashes), so a
// whole build costs a small constant number of allocations at any
// leaf count (TestBuildHashesConstantAllocs). Nodes whose subtree is
// entirely padding are filled from the padding table instead of being
// hashed; the tree is node-for-node what hashing them would give
// (padHashes is exactly that fixpoint), which
// TestBlockBuildMatchesReference and the golden receipt pin.
type Builder struct {
	t        *Tree
	blockLog int // log2 leaves per block; the tree depth when smaller
}

// NewBuilder starts a tree over n leaves. An n of zero gives the
// one-leaf tree over the empty hash.
func NewBuilder(n int) *Builder {
	size, depth := 1, 0
	for size < n {
		size <<= 1
		depth++
	}
	t := &Tree{nLeaves: n, levels: make([][]Hash, depth+1), arena: arenas.Get(2<<depth - 1)}
	off := 0
	for l := range t.levels {
		t.levels[l] = t.arena[off : off+size>>l]
		off += size >> l
	}
	return &Builder{t: t, blockLog: min(blockLog, depth)}
}

// Blocks returns the number of blocks, all-padding ones included:
// every block must be reduced before Finish.
func (b *Builder) Blocks() int { return len(b.t.levels[b.blockLog]) }

// Leaves returns the index of block i's first leaf and the slots of
// its real leaves (none for an all-padding block).
func (b *Builder) Leaves(i int) (first int, leaves []Hash) {
	first = i << b.blockLog
	return first, b.t.levels[0][min(first, b.t.nLeaves):min(first+1<<b.blockLog, b.t.nLeaves)]
}

// Reduce pads block i's leaf range and hashes it up to its subtree
// root.
func (b *Builder) Reduce(i int) {
	level := b.t.levels[0]
	for j := max(i<<b.blockLog, b.t.nLeaves); j < (i+1)<<b.blockLog; j++ {
		level[j] = emptyHash
	}
	b.t.reduce(0, b.blockLog, i)
}

// Finish hashes the levels above the block roots and returns the
// tree. The builder must not be used afterwards.
func (b *Builder) Finish() *Tree {
	t := b.t
	b.t = nil
	t.reduce(b.blockLog, t.Depth(), 0)
	return t
}

// reduce fills levels from+1..to of the subtree whose root is node
// idx of level to; the subtree's nodes on level from must be in place.
// Only nodes above at least one real leaf are hashed, the rest are
// roots of all-padding subtrees.
func (t *Tree) reduce(from, to, idx int) {
	for l := from + 1; l <= to; l++ {
		lo, hi := idx<<(to-l), (idx+1)<<(to-l)
		filled := min(max((t.nLeaves+1<<l-1)>>l, lo), hi)
		hashk.HashLevel(t.levels[l][lo:filled], t.levels[l-1][2*lo:2*filled])
		for i := filled; i < hi; i++ {
			t.levels[l][i] = padHashes[l]
		}
	}
}

// Root returns the Merkle root.
func (t *Tree) Root() Hash { return t.levels[len(t.levels)-1][0] }

// Len returns the number of (unpadded) leaves.
func (t *Tree) Len() int { return t.nLeaves }

// Depth returns the number of levels above the leaves.
func (t *Tree) Depth() int { return len(t.levels) - 1 }

// Leaf returns the hash of leaf i.
func (t *Tree) Leaf(i int) (Hash, error) {
	if i < 0 || i >= t.nLeaves {
		return Hash{}, ErrIndexOutOfRange
	}
	return t.levels[0][i], nil
}

// Proof is an inclusion proof for a single leaf: the sibling hash at
// each level from the leaf up to (excluding) the root — the one-leaf
// multiproof.
type Proof struct {
	Index int
	Path  []Hash
}

// Size returns the encoded size of the proof in bytes.
func (p Proof) Size() int { return 8 + 32*len(p.Path) }

// Prove returns an inclusion proof for leaf i.
func (t *Tree) Prove(i int) (Proof, error) {
	mp, err := t.ProveMulti([]int{i})
	if err != nil {
		return Proof{}, err
	}
	return Proof{Index: i, Path: mp.Nodes}, nil
}

// Verify checks that leafHash is committed at p.Index under root: the
// one-leaf case of VerifyMulti, in a tree as deep as the path is long.
func Verify(root Hash, leafHash Hash, p Proof) bool {
	return VerifyMulti(root, len(p.Path), []Leaf{{p.Index, leafHash}}, MultiProof{p.Path}) == nil
}

// MultiProof authenticates a set of leaves of one tree at once. Nodes
// are the siblings the opened leaves need and do not determine
// themselves, each once, in one canonical order: level by level from
// the leaves up, left to right within a level. A node both of whose
// children are opened or computed is left out; a padding sibling is
// not, so a one-leaf multiproof is exactly that leaf's Proof.Path.
type MultiProof struct {
	Nodes []Hash
}

// Leaf is an opened leaf: its index and its hash.
type Leaf struct {
	Index int
	Hash  Hash
}

// checkIndices requires indices to be non-empty, strictly increasing
// and inside [0, limit).
func checkIndices(indices []int, limit int) error {
	if len(indices) == 0 {
		return fmt.Errorf("%w: no leaves", ErrProofInvalid)
	}
	for i, x := range indices {
		if x < 0 || x >= limit {
			return ErrIndexOutOfRange
		}
		if i > 0 && x <= indices[i-1] {
			return fmt.Errorf("%w: leaf %d after leaf %d", ErrProofInvalid, x, indices[i-1])
		}
	}
	return nil
}

// ProveMulti returns the multiproof of the leaves at indices, which
// must be sorted, distinct and inside the tree.
func (t *Tree) ProveMulti(indices []int) (MultiProof, error) {
	if err := checkIndices(indices, t.nLeaves); err != nil {
		return MultiProof{}, err
	}
	cur := slices.Clone(indices)
	nodes := make([]Hash, 0, t.Depth())
	for lvl := 0; lvl < t.Depth(); lvl++ {
		n := 0
		for i := 0; i < len(cur); i++ {
			x := cur[i]
			if x&1 == 0 && i+1 < len(cur) && cur[i+1] == x+1 {
				i++ // both children opened
			} else {
				nodes = append(nodes, t.levels[lvl][x^1])
			}
			cur[n] = x >> 1
			n++
		}
		cur = cur[:n]
	}
	return MultiProof{Nodes: nodes}, nil
}

// VerifyMulti checks that leaves, sorted by index and distinct, are
// committed under root in a tree of the given depth, and that p is
// exactly their multiproof: a node missing or left over, an index out
// of order, repeated or outside the tree's 2^depth leaves is an error,
// and nodes out of order do not reach the root. So the multiproof of a
// set of leaves has one spelling. Each level is hashed in one HashLevel
// pass.
func VerifyMulti(root Hash, depth int, leaves []Leaf, p MultiProof) error {
	if depth < 0 || depth > maxDepth {
		return fmt.Errorf("%w: depth %d", ErrProofInvalid, depth)
	}
	// One allocation: the level's indices, its hashes and the sibling
	// pairs that hash into the next.
	idx := make([]int, len(leaves))
	hs := make([]Hash, 3*len(leaves))
	hs, pairs := hs[:len(leaves)], hs[len(leaves):len(leaves)]
	for i, l := range leaves {
		idx[i], hs[i] = l.Index, l.Hash
	}
	if err := checkIndices(idx, 1<<depth); err != nil {
		return err
	}
	nodes := p.Nodes
	for lvl := 0; lvl < depth; lvl++ {
		pairs = pairs[:0]
		n := 0
		for i := 0; i < len(idx); i++ {
			x := idx[i]
			switch {
			case x&1 == 0 && i+1 < len(idx) && idx[i+1] == x+1:
				pairs = append(pairs, hs[i], hs[i+1])
				i++
			case len(nodes) == 0:
				return fmt.Errorf("%w: missing node at level %d", ErrProofInvalid, lvl)
			case x&1 == 0:
				pairs = append(pairs, hs[i], nodes[0])
				nodes = nodes[1:]
			default:
				pairs = append(pairs, nodes[0], hs[i])
				nodes = nodes[1:]
			}
			idx[n] = x >> 1
			n++
		}
		idx, hs = idx[:n], hs[:n]
		hashk.HashLevel(hs, pairs)
	}
	if len(nodes) != 0 {
		return fmt.Errorf("%w: %d surplus nodes", ErrProofInvalid, len(nodes))
	}
	if hs[0] != root {
		return fmt.Errorf("%w: root mismatch", ErrProofInvalid)
	}
	return nil
}

// Update replaces the hash of leaf i and recomputes the path to the
// root in O(log n).
func (t *Tree) Update(i int, leafHash Hash) error {
	if i < 0 || i >= t.nLeaves {
		return ErrIndexOutOfRange
	}
	t.levels[0][i] = leafHash
	idx := i
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		parent := idx >> 1
		t.levels[lvl+1][parent] = NodeHash(t.levels[lvl][2*parent], t.levels[lvl][2*parent+1])
		idx = parent
	}
	return nil
}
