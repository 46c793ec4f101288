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

// Root folds the frontier into the Merkle root over the first Count
// entries. The checkpoint must be valid.
func (c Checkpoint) Root() merkle.Hash {
	f := Frontier{count: c.Count, branch: c.Frontier}
	return f.Root()
}

// frontier returns the checkpoint's frontier as an appendable value
// (copying the branch so the checkpoint stays immutable).
func (c Checkpoint) frontier() Frontier {
	branch := make([]merkle.Hash, len(c.Frontier))
	copy(branch, c.Frontier)
	return Frontier{count: c.Count, branch: branch}
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

// Frontier is an incremental Merkle accumulator over entry leaf
// hashes: branch[l] holds, whenever bit l of count is set, the root
// of the completed 2^l-leaf subtree at that position of the left-to-
// right decomposition. Appending is O(log n) amortised and Root()
// reproduces merkle.BuildHashes over the same leaves exactly
// (including the empty-leaf padding), which TestFrontierMatchesTree
// pins for every count.
type Frontier struct {
	count  uint64
	branch []merkle.Hash
}

// Count returns the number of appended leaves.
func (f *Frontier) Count() uint64 { return f.count }

// Append absorbs the next leaf hash.
func (f *Frontier) Append(leaf merkle.Hash) {
	h := leaf
	c := f.count
	l := 0
	for ; c&1 == 1; l++ {
		h = merkle.NodeHash(f.branch[l], h)
		c >>= 1
	}
	if l < len(f.branch) {
		f.branch[l] = h
	} else {
		f.branch = append(f.branch, h)
	}
	f.count++
}

// Branch returns the frontier's node slots with stale (unset-bit)
// slots zeroed, so two frontiers over the same leaves are
// byte-identical regardless of append history.
func (f *Frontier) Branch() []merkle.Hash {
	out := make([]merkle.Hash, bits.Len64(f.count))
	for l := range out {
		if f.count>>uint(l)&1 == 1 {
			out[l] = f.branch[l]
		}
	}
	return out
}

// Root folds the frontier into the root of the padded Merkle tree
// over the appended leaves — identical to merkle.BuildHashes of the
// same leaf hashes.
func (f *Frontier) Root() merkle.Hash {
	if f.count == 0 {
		// merkle.BuildHashes(nil) is a one-leaf tree over the empty
		// leaf hash.
		return merkle.PaddingHash(0)
	}
	// The tree is 2^depth leaves wide. bits.Len64, not a doubling
	// loop: a count above 2^63 would wrap the shift and never end.
	depth := bits.Len64(f.count - 1)
	if f.count == uint64(1)<<depth {
		return f.branch[depth]
	}
	// Walk the boundary path (the node containing the first padding
	// leaf) from the leaves up: a set bit contributes a completed
	// subtree on the left, a clear bit pads on the right.
	h := merkle.PaddingHash(0)
	for l := 0; l < depth; l++ {
		if f.count>>uint(l)&1 == 1 {
			h = merkle.NodeHash(f.branch[l], h)
		} else {
			h = merkle.NodeHash(h, merkle.PaddingHash(l))
		}
	}
	return h
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
	cp := Checkpoint{Epoch: epoch, Count: l.frontier.Count(), Frontier: l.frontier.Branch()}
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

// LatestCheckpoint returns the most recent checkpoint.
func (l *Ledger) LatestCheckpoint() (Checkpoint, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.checkpoints) == 0 {
		return Checkpoint{}, ErrNoCheckpoint
	}
	return l.checkpoints[len(l.checkpoints)-1], nil
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
// against checkpoint cp. The most recently proved-against prefix tree
// is cached, so serving many proofs against the same (usually latest)
// checkpoint rebuilds nothing.
func (l *Ledger) ProveInclusion(index uint64, cp Checkpoint) (merkle.Proof, error) {
	if err := cp.Validate(); err != nil {
		return merkle.Proof{}, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if index >= cp.Count {
		return merkle.Proof{}, fmt.Errorf("%w: entry %d, checkpoint count %d", ErrStaleCheckpoint, index, cp.Count)
	}
	if cp.Count > uint64(len(l.entries)) {
		return merkle.Proof{}, fmt.Errorf("%w: count %d beyond ledger length %d", ErrNoCheckpoint, cp.Count, len(l.entries))
	}
	if l.proofTree == nil || l.proofTreeCount != cp.Count {
		l.proofTree = merkle.BuildHashes(l.leafHashes[:cp.Count])
		l.proofTreeCount = cp.Count
	}
	if l.proofTree.Root() != cp.Root() {
		// The checkpoint did not come from this ledger's history.
		return merkle.Proof{}, fmt.Errorf("%w: root mismatch at count %d", ErrBadCheckpoint, cp.Count)
	}
	return l.proofTree.Prove(int(index))
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
	f := from.frontier()
	for i, c := range entries {
		if c.Index != from.Count+uint64(i) {
			return fmt.Errorf("%w: entry %d claims index %d", ErrBadExtension, i, c.Index)
		}
		f.Append(EntryHash(c))
	}
	if f.Root() != to.Root() {
		return fmt.Errorf("%w: recomputed root does not match checkpoint", ErrBadExtension)
	}
	return nil
}
