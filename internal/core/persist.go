package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"zkflow/internal/clog"
	"zkflow/internal/guest"
	"zkflow/internal/ledger"
	"zkflow/internal/store"
	"zkflow/internal/vmtree"
	"zkflow/internal/zkvm"
)

// Checkpointing: aggregation rounds chain cryptographically, so an
// operator that restarts mid-history must restore its CLog and its
// receipt chain exactly — and an auditor must restore its trusted
// root and chain hash — or every future round will be rejected as a
// fork. The formats below are versioned little-endian binary.

const (
	proverMagic   = 0x7a6b6370 // "zkcp"
	verifierMagic = 0x7a6b7673 // "zkvs"
)

// SaveCheckpoint persists the prover's private CLog and its receipt
// history.
func (p *Prover) SaveCheckpoint(w io.Writer) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], proverMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(p.history)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(p.entries)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, res := range p.history {
		bin, err := res.Receipt.MarshalBinary()
		if err != nil {
			return err
		}
		var pre [16]byte
		binary.LittleEndian.PutUint64(pre[0:], res.Epoch)
		binary.LittleEndian.PutUint64(pre[8:], uint64(len(bin)))
		if _, err := w.Write(pre[:]); err != nil {
			return err
		}
		if _, err := w.Write(bin); err != nil {
			return err
		}
	}
	for i := range p.entries {
		if _, err := w.Write(p.entries[i].Wire()); err != nil {
			return err
		}
	}
	return nil
}

// ErrCheckpoint wraps checkpoint decode/consistency failures.
var ErrCheckpoint = errors.New("core: invalid checkpoint")

// LoadProver restores a prover from a checkpoint, attaching it to the
// live store and ledger. The restored CLog is cross-checked against
// the last receipt's journaled root, so a corrupted or mismatched
// checkpoint is rejected rather than silently forking the chain.
func LoadProver(r io.Reader, st *store.Store, lg *ledger.Ledger, opts Options) (*Prover, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpoint, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != proverMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCheckpoint)
	}
	nHist := binary.LittleEndian.Uint32(hdr[4:])
	nEntries := binary.LittleEndian.Uint32(hdr[8:])
	if nHist > 1<<20 || nEntries > 1<<28 {
		return nil, fmt.Errorf("%w: implausible sizes", ErrCheckpoint)
	}
	p := NewProver(st, lg, opts)
	for i := uint32(0); i < nHist; i++ {
		var pre [16]byte
		if _, err := io.ReadFull(r, pre[:]); err != nil {
			return nil, fmt.Errorf("%w: receipt %d: %v", ErrCheckpoint, i, err)
		}
		epoch := binary.LittleEndian.Uint64(pre[0:])
		size := binary.LittleEndian.Uint64(pre[8:])
		if size > 1<<30 {
			return nil, fmt.Errorf("%w: receipt %d of %d bytes", ErrCheckpoint, i, size)
		}
		bin := make([]byte, size)
		if _, err := io.ReadFull(r, bin); err != nil {
			return nil, fmt.Errorf("%w: receipt %d: %v", ErrCheckpoint, i, err)
		}
		receipt, err := zkvm.UnmarshalReceipt(bin)
		if err != nil {
			return nil, fmt.Errorf("%w: receipt %d: %v", ErrCheckpoint, i, err)
		}
		j, err := guest.ParseAggJournal(receipt.JournalWords())
		if err != nil {
			return nil, fmt.Errorf("%w: receipt %d journal: %v", ErrCheckpoint, i, err)
		}
		p.history = append(p.history, &AggregationResult{Epoch: epoch, Receipt: receipt, Journal: j})
	}
	p.entries = make([]clog.Entry, nEntries)
	buf := make([]byte, clog.WireBytes)
	for i := uint32(0); i < nEntries; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrCheckpoint, i, err)
		}
		e, err := clog.DecodeWire(buf)
		if err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrCheckpoint, i, err)
		}
		p.entries[i] = e
	}
	// Consistency: the restored CLog must hash to the last journaled
	// root (zeros at genesis).
	wantRoot := vmtree.Digest{}
	if n := len(p.history); n > 0 {
		wantRoot = p.history[n-1].Journal.NewRoot
	}
	if got := vmtree.Root(guest.EntryWordsOf(p.entries)); got != wantRoot {
		return nil, fmt.Errorf("%w: restored CLog root %v does not match receipt chain %v",
			ErrCheckpoint, got.Bytes(), wantRoot.Bytes())
	}
	return p, nil
}

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
