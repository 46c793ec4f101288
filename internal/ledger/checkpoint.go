// Checkpointed ledger heads and inclusion proofs: the proof-sync
// surface light clients pin and verify forward from.
//
// A Checkpoint is a bounded-size summary of a ledger prefix sealed at
// an epoch boundary: the entry count and the O(log n) Merkle frontier
// over the canonical entry encodings, which folds to the prefix's
// Merkle root. The frontier is what makes checkpoints *advanceable*
// without trusting the operator: a client holding checkpoint A can
// append the entries published since A and recompute — not merely
// accept — the root of any later checkpoint B, as a Certificate
// Transparency tree head (RFC 6962) is extended. Inclusion proofs then
// authenticate any single entry against a checkpoint the client
// already trusts, in O(log n) hashes instead of a prefix re-download.
package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"zkflow/internal/merkle"
)

// Checkpoint errors.
var (
	// ErrNoCheckpoint reports a lookup for an epoch no checkpoint
	// covers, or an empty checkpoint list.
	ErrNoCheckpoint = errors.New("ledger: no such checkpoint")
	// ErrCheckpointOrder reports a SealEpoch that does not advance the
	// last sealed epoch.
	ErrCheckpointOrder = errors.New("ledger: checkpoint epochs must advance")
	// ErrBadCheckpoint reports a structurally invalid checkpoint
	// (frontier inconsistent with count), or one that did not come
	// from this ledger's history.
	ErrBadCheckpoint = errors.New("ledger: malformed checkpoint")
	// ErrStaleCheckpoint reports an inclusion proof for an entry the
	// checkpoint does not cover (entry index >= checkpoint count).
	ErrStaleCheckpoint = errors.New("ledger: entry not covered by checkpoint")
	// ErrBadExtension reports a ledger extension that does not connect
	// two checkpoints: discontiguous indices, or a root that the
	// appended entries do not reproduce.
	ErrBadExtension = errors.New("ledger: checkpoint extension invalid")
	// ErrProofInvalid reports an inclusion proof that does not verify.
	ErrProofInvalid = errors.New("ledger: inclusion proof invalid")
)

// Checkpoint is a sealed, fixed-bound summary of the first Count
// ledger entries, taken when epoch Epoch finished publishing. Frontier
// is the right-edge node set of the Merkle tree over EntryHash of
// entries [0, Count): slot l holds the completed 2^l-leaf subtree when
// bit l of Count is set and is zero otherwise. Root folds it; later
// entries append onto it.
type Checkpoint struct {
	Epoch    uint64        `json:"epoch"`
	Count    uint64        `json:"count"`
	Frontier []merkle.Hash `json:"frontier"`
}

// checkpointDomain separates checkpoint digests from every other hash
// in the system. v3: frontier nodes are one compression from the node
// IV (merkle), so a checkpoint pinned over v2's two-compression nodes
// fails its digest instead of extending under the wrong tree.
var checkpointDomain = []byte("zkflow/ledger/checkpoint/v3")

// Digest binds every checkpoint field into one hash — the value a
// light client pins out of band.
func (c Checkpoint) Digest() merkle.Hash {
	h := sha256.New()
	h.Write(checkpointDomain)
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:], c.Epoch)
	binary.LittleEndian.PutUint64(buf[8:], c.Count)
	h.Write(buf[:])
	for i := range c.Frontier {
		h.Write(c.Frontier[i][:])
	}
	var out merkle.Hash
	h.Sum(out[:0])
	return out
}

// Validate checks the checkpoint's shape: the frontier has exactly one
// slot per significant bit of Count, and every slot whose bit is clear
// is zero, so one ledger prefix has one digest. It does NOT establish
// trust — only that the fields cohere.
func (c Checkpoint) Validate() error {
	if len(c.Frontier) != bits.Len64(c.Count) {
		return fmt.Errorf("%w: frontier has %d slots for count %d", ErrBadCheckpoint, len(c.Frontier), c.Count)
	}
	for l := range c.Frontier {
		if c.Count>>uint(l)&1 == 0 && c.Frontier[l] != (merkle.Hash{}) {
			return fmt.Errorf("%w: frontier slot %d set for count %d", ErrBadCheckpoint, l, c.Count)
		}
	}
	return nil
}

// entryDomain separates ledger-entry leaf encodings from other leaves.
var entryDomain = []byte("zkflow/ledger/entry/v2")

// EntryHash is the canonical Merkle leaf hash of a ledger entry: a
// domain-separated leaf over every field.
func EntryHash(c Commitment) merkle.Hash {
	var buf [len("zkflow/ledger/entry/v2") + 20 + 32]byte
	n := copy(buf[:], entryDomain)
	binary.LittleEndian.PutUint64(buf[n:], c.Index)
	binary.LittleEndian.PutUint32(buf[n+8:], c.Router)
	binary.LittleEndian.PutUint64(buf[n+12:], c.Epoch)
	n += 20
	n += copy(buf[n:], c.Hash[:])
	return merkle.LeafHash(buf[:n])
}

// extend appends the next leaf hash to the frontier, Count included,
// in O(log n) amortised: the carry folds the completed subtrees of the
// set low bits into one, whose slot it fills, and clears theirs, so the
// frontier stays the one frontier of its prefix.
// TestFrontierMatchesTree pins it against merkle.BuildHashes for every
// count.
func (c *Checkpoint) extend(leaf merkle.Hash) {
	h, l := leaf, 0
	for ; c.Count>>l&1 == 1; l++ {
		h = merkle.NodeHash(c.Frontier[l], h)
		c.Frontier[l] = merkle.Hash{}
	}
	if l < len(c.Frontier) {
		c.Frontier[l] = h
	} else {
		c.Frontier = append(c.Frontier, h)
	}
	c.Count++
}

// Root folds the frontier into the root of the padded Merkle tree over
// the first Count entries — identical to merkle.BuildHashes of their
// leaf hashes. The checkpoint must be valid.
func (c Checkpoint) Root() merkle.Hash {
	if c.Count == 0 {
		// merkle.BuildHashes(nil) is a one-leaf tree over the empty
		// leaf hash.
		return merkle.PaddingHash(0)
	}
	// The tree is 2^depth leaves wide. bits.Len64, not a doubling
	// loop: a count above 2^63 would wrap the shift and never end.
	depth := bits.Len64(c.Count - 1)
	if c.Count == uint64(1)<<depth {
		return c.Frontier[depth]
	}
	// Walk the boundary path (the node containing the first padding
	// leaf) from the leaves up: a set bit contributes a completed
	// subtree on the left, a clear bit pads on the right.
	h := merkle.PaddingHash(0)
	for l := 0; l < depth; l++ {
		if c.Count>>uint(l)&1 == 1 {
			h = merkle.NodeHash(c.Frontier[l], h)
		} else {
			h = merkle.NodeHash(h, merkle.PaddingHash(l))
		}
	}
	return h
}

// appendLeaf adds the next entry's leaf hash to the tree, and every
// node it completes.
func (l *Ledger) appendLeaf(h merkle.Hash) {
	for lvl := 0; ; lvl++ {
		if lvl == len(l.tree) {
			l.tree = append(l.tree, nil)
		}
		l.tree[lvl] = append(l.tree[lvl], h)
		n := len(l.tree[lvl])
		if n%2 == 1 {
			return
		}
		h = merkle.NodeHash(l.tree[lvl][n-2], h)
	}
}

// frontier reads the Frontier of the first count entries off the
// tree: slot lvl, when bit lvl of count is set, is the completed node
// of level lvl that ends at entry count.
func (l *Ledger) frontier(count uint64) []merkle.Hash {
	out := make([]merkle.Hash, bits.Len64(count))
	for lvl := range out {
		if count>>lvl&1 == 1 {
			out[lvl] = l.tree[lvl][count>>lvl-1]
		}
	}
	return out
}

// SealEpoch records a checkpoint covering every entry published so
// far, attributed to epoch. Epochs must advance strictly; the
// operator calls this once per epoch after all of the epoch's
// commitments are published (router.Sim and ingest.Pipeline both do).
func (l *Ledger) SealEpoch(epoch uint64) (Checkpoint, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.checkpoints); n > 0 && epoch <= l.checkpoints[n-1].Epoch {
		return Checkpoint{}, fmt.Errorf("%w: epoch %d after %d", ErrCheckpointOrder, epoch, l.checkpoints[n-1].Epoch)
	}
	count := uint64(len(l.entries))
	cp := Checkpoint{Epoch: epoch, Count: count, Frontier: l.frontier(count)}
	l.checkpoints = append(l.checkpoints, cp)
	return cp, nil
}

// Checkpoints returns a copy of every sealed checkpoint in order.
func (l *Ledger) Checkpoints() []Checkpoint {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]Checkpoint, len(l.checkpoints))
	copy(out, l.checkpoints)
	return out
}

// Sealed returns the number of sealed checkpoints and the latest one
// (the zero Checkpoint when there is none), read together.
func (l *Ledger) Sealed() (n int, latest Checkpoint) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if n = len(l.checkpoints); n > 0 {
		latest = l.checkpoints[n-1]
	}
	return n, latest
}

// LatestCheckpoint returns the most recent checkpoint.
func (l *Ledger) LatestCheckpoint() (Checkpoint, error) {
	if n, cp := l.Sealed(); n > 0 {
		return cp, nil
	}
	return Checkpoint{}, ErrNoCheckpoint
}

// CheckpointByEpoch returns the checkpoint sealed for the given epoch.
func (l *Ledger) CheckpointByEpoch(epoch uint64) (Checkpoint, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for i := len(l.checkpoints) - 1; i >= 0; i-- {
		if l.checkpoints[i].Epoch == epoch {
			return l.checkpoints[i], nil
		}
	}
	return Checkpoint{}, fmt.Errorf("%w: epoch %d", ErrNoCheckpoint, epoch)
}

// CheckpointByCount returns the checkpoint covering exactly count
// entries — how a server resolves a client-pinned checkpoint.
func (l *Ledger) CheckpointByCount(count uint64) (Checkpoint, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for i := len(l.checkpoints) - 1; i >= 0; i-- {
		if l.checkpoints[i].Count == count {
			return l.checkpoints[i], nil
		}
	}
	return Checkpoint{}, fmt.Errorf("%w: count %d", ErrNoCheckpoint, count)
}

// ProveInclusion returns a Merkle inclusion proof for entry index
// against checkpoint cp, read off the ledger's tree in O(log n): the
// proof merkle.BuildHashes over the first cp.Count leaf hashes gives.
// A sibling whose leaves all precede entry cp.Count is a tree node, one
// whose leaves all follow it is padding, and the one holding it is
// folded from the frontier as Checkpoint.Root folds it.
func (l *Ledger) ProveInclusion(index uint64, cp Checkpoint) (merkle.Proof, error) {
	if err := cp.Validate(); err != nil {
		return merkle.Proof{}, err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	if index >= cp.Count {
		return merkle.Proof{}, fmt.Errorf("%w: entry %d, checkpoint count %d", ErrStaleCheckpoint, index, cp.Count)
	}
	if cp.Count > uint64(len(l.entries)) {
		return merkle.Proof{}, fmt.Errorf("%w: count %d beyond ledger length %d", ErrNoCheckpoint, cp.Count, len(l.entries))
	}
	if !slices.Equal(cp.Frontier, l.frontier(cp.Count)) {
		// The checkpoint did not come from this ledger's history.
		return merkle.Proof{}, fmt.Errorf("%w: root mismatch at count %d", ErrBadCheckpoint, cp.Count)
	}
	c := cp.Count
	path := make([]merkle.Hash, bits.Len64(c-1))
	edge := merkle.PaddingHash(0) // the level's node holding entry c
	for lvl := range path {
		switch sib := index>>lvl ^ 1; {
		case (sib+1)<<lvl <= c:
			path[lvl] = l.tree[lvl][sib]
		case sib == c>>lvl:
			path[lvl] = edge
		default:
			path[lvl] = merkle.PaddingHash(lvl)
		}
		if c>>lvl&1 == 1 {
			edge = merkle.NodeHash(l.tree[lvl][c>>lvl-1], edge)
		} else {
			edge = merkle.NodeHash(edge, merkle.PaddingHash(lvl))
		}
	}
	return merkle.Proof{Index: int(index), Path: path}, nil
}

// VerifyInclusion checks, client-side, that entry c is committed at
// its index under checkpoint cp. A proof for the wrong index, a
// tampered entry, or a checkpoint that does not cover the entry all
// fail.
func VerifyInclusion(cp Checkpoint, c Commitment, p merkle.Proof) error {
	if err := cp.Validate(); err != nil {
		return err
	}
	if c.Index >= cp.Count {
		return fmt.Errorf("%w: entry %d, checkpoint count %d", ErrStaleCheckpoint, c.Index, cp.Count)
	}
	if uint64(p.Index) != c.Index {
		return fmt.Errorf("%w: proof for index %d, entry claims %d", ErrProofInvalid, p.Index, c.Index)
	}
	if !merkle.Verify(cp.Root(), EntryHash(c), p) {
		return fmt.Errorf("%w: entry %d under checkpoint root", ErrProofInvalid, c.Index)
	}
	return nil
}

// VerifyExtension checks, client-side, that `entries` are exactly the
// ledger entries published between checkpoints from and to: indices
// continue from.Count contiguously, and appending the entries to
// from's frontier reproduces to's root. A valid frontier is the only
// one over its prefix, so on success `to` is the checkpoint the honest
// ledger sealed at to.Epoch, and the caller may trust it (and the
// entries) as firmly as it trusted `from`. from.Count == to.Count with
// equal digests verifies a no-op refresh.
func VerifyExtension(from Checkpoint, entries []Commitment, to Checkpoint) error {
	if to.Count < from.Count {
		return fmt.Errorf("%w: checkpoint regressed from count %d to %d", ErrBadExtension, from.Count, to.Count)
	}
	if to.Count != from.Count+uint64(len(entries)) {
		return fmt.Errorf("%w: %d entries do not span counts %d..%d", ErrBadExtension, len(entries), from.Count, to.Count)
	}
	if to.Count > from.Count && to.Epoch <= from.Epoch {
		return fmt.Errorf("%w: epoch did not advance (%d -> %d)", ErrBadExtension, from.Epoch, to.Epoch)
	}
	if err := from.Validate(); err != nil {
		return err
	}
	if err := to.Validate(); err != nil {
		return err
	}
	f := from
	f.Frontier = slices.Clone(from.Frontier)
	for i, c := range entries {
		if c.Index != from.Count+uint64(i) {
			return fmt.Errorf("%w: entry %d claims index %d", ErrBadExtension, i, c.Index)
		}
		f.extend(EntryHash(c))
	}
	if f.Root() != to.Root() {
		return fmt.Errorf("%w: recomputed root does not match checkpoint", ErrBadExtension)
	}
	return nil
}
