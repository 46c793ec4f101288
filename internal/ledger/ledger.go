// Package ledger implements the public commitment bulletin board:
// the append-only log where routers publish their periodic RLog hash
// commitments (paper §3). One Merkle accumulator authenticates it
// (checkpoint.go): anyone holding a sealed checkpoint can detect
// retroactive insertion, deletion, or modification of a commitment it
// covers — the property the tamper experiment (§5/§6) relies on.
package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"zkflow/internal/merkle"
	"zkflow/internal/netflow"
)

// Commitment is one published per-router, per-epoch hash commitment.
type Commitment struct {
	Index  uint64 // position in the ledger
	Router uint32
	Epoch  uint64
	Hash   merkle.Hash // CommitRecords of the router's epoch batch
}

// CommitRecords computes the canonical commitment hash of an RLog
// batch, H_i = SHA-256(R_i) in the paper: the SHA-256 of
// netflow.EncodeBatch, which is the digest the aggregation guest's
// SysHash takes of the batch's words when it recomputes H_i in-VM.
func CommitRecords(recs []netflow.Record) merkle.Hash {
	return sha256.Sum256(netflow.EncodeBatch(recs))
}

// Errors returned by the ledger.
var (
	ErrDuplicate = errors.New("ledger: commitment already published for that router/epoch")
	ErrNotFound  = errors.New("ledger: no commitment for that router/epoch")
	ErrOrder     = errors.New("ledger: entry out of index order")
)

// Ledger is an append-only commitment log. Safe for concurrent use.
type Ledger struct {
	mu      sync.RWMutex
	entries []Commitment
	index   map[[12]byte]int // (router, epoch) -> entry index

	// Checkpoint state (see checkpoint.go): the per-entry Merkle leaf
	// hashes, the incremental frontier over them, sealed checkpoints,
	// and the cached prefix tree the inclusion-proof path serves from.
	leafHashes     []merkle.Hash
	frontier       Frontier
	checkpoints    []Checkpoint
	proofTree      *merkle.Tree
	proofTreeCount uint64
}

// New returns an empty ledger.
func New() *Ledger {
	return &Ledger{index: make(map[[12]byte]int)}
}

func ikey(router uint32, epoch uint64) [12]byte {
	var k [12]byte
	binary.LittleEndian.PutUint32(k[0:], router)
	binary.LittleEndian.PutUint64(k[4:], epoch)
	return k
}

// Publish appends a commitment. A router may publish at most once per
// epoch — re-publication (the obvious tamper path) is rejected.
func (l *Ledger) Publish(router uint32, epoch uint64, hash merkle.Hash) (Commitment, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := ikey(router, epoch)
	if _, dup := l.index[k]; dup {
		return Commitment{}, fmt.Errorf("%w: router %d epoch %d", ErrDuplicate, router, epoch)
	}
	c := Commitment{Index: uint64(len(l.entries)), Router: router, Epoch: epoch, Hash: hash}
	l.index[k] = len(l.entries)
	l.entries = append(l.entries, c)
	l.leafHashes = append(l.leafHashes, EntryHash(c))
	l.frontier.Append(l.leafHashes[len(l.leafHashes)-1])
	return c, nil
}

// Lookup returns the commitment a router published for an epoch.
func (l *Ledger) Lookup(router uint32, epoch uint64) (Commitment, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	i, ok := l.index[ikey(router, epoch)]
	if !ok {
		return Commitment{}, fmt.Errorf("%w: router %d epoch %d", ErrNotFound, router, epoch)
	}
	return l.entries[i], nil
}

// Len returns the number of published commitments.
func (l *Ledger) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries)
}

// Entries returns a copy of every published commitment.
func (l *Ledger) Entries() []Commitment {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]Commitment, len(l.entries))
	copy(out, l.entries)
	return out
}

// FromEntries rebuilds a ledger from a downloaded entry list — how a
// remote auditor bootstraps its local view of the bulletin board. It
// refuses an entry out of index order and a second commitment for one
// (router, epoch); what authenticates the entries is a checkpoint
// (VerifyExtension) or a receipt journal that binds their hashes.
func FromEntries(entries []Commitment) (*Ledger, error) {
	l := New()
	for i, c := range entries {
		if c.Index != uint64(i) {
			return nil, fmt.Errorf("%w: entry %d claims index %d", ErrOrder, i, c.Index)
		}
		if _, err := l.Publish(c.Router, c.Epoch, c.Hash); err != nil {
			return nil, err
		}
	}
	return l, nil
}
