package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"zkflow/internal/ledger"
	"zkflow/internal/vmtree"
)

// Auditor state: aggregation rounds chain cryptographically, so an
// auditor that stops between rounds must restore its trusted root,
// chain hash and round count exactly, or it rejects every later round
// as a fork. The encoding is versioned little-endian binary. The
// operator persists nothing: its ledger, store and receipt chain last
// one process.

// verifierMagic versions the auditor-state encoding.
const verifierMagic = 0x7a6b7673 // "zkvs"

// ErrCheckpoint wraps auditor-state decode failures.
var ErrCheckpoint = errors.New("core: invalid checkpoint")

// SaveState persists the verifier's trusted root, chain hash, and
// round count — the whole trust state an auditor needs across
// restarts.
func (v *Verifier) SaveState(w io.Writer) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	var buf [4 + 8 + 32 + 32]byte
	binary.LittleEndian.PutUint32(buf[0:], verifierMagic)
	binary.LittleEndian.PutUint64(buf[4:], uint64(v.rounds))
	root := v.trustedRoot.Bytes()
	copy(buf[12:44], root[:])
	chain := v.lastJournalHash.Bytes()
	copy(buf[44:76], chain[:])
	_, err := w.Write(buf[:])
	return err
}

// LoadVerifier restores an auditor's trust state against the live
// ledger.
func LoadVerifier(r io.Reader, lg *ledger.Ledger) (*Verifier, error) {
	var buf [76]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpoint, err)
	}
	if binary.LittleEndian.Uint32(buf[0:]) != verifierMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCheckpoint)
	}
	v := NewVerifier(lg)
	v.rounds = int(binary.LittleEndian.Uint64(buf[4:]))
	var root, chain [32]byte
	copy(root[:], buf[12:44])
	copy(chain[:], buf[44:76])
	v.trustedRoot = vmtree.FromBytes(root)
	v.lastJournalHash = vmtree.FromBytes(chain)
	return v, nil
}
