// Package lightsync implements the light-client proof sync protocol:
// a client that trusts one pinned ledger checkpoint and advances it
// to the operator's newest proved epoch by verifying artifacts — never
// by trusting claims — while fetching a small fraction of what a full
// audit downloads.
//
// The trust topology, per sync:
//
//  1. Fetch the latest checkpoint. Refuse any whose entry count
//     regresses the pinned one, and any whose Merkle frontier is
//     malformed for its count. Then fetch the sync hints once. The new
//     checkpoint is that of the newest epoch past the pin with a served
//     round: the head, or an earlier one while the head's epoch is
//     still being proved. With no such round the pin stays where it is
//     and nothing is verified.
//  2. Fetch only the ledger entries beyond the pinned count and run
//     ledger.VerifyExtension: the delta's indices must continue the
//     pinned count, and appending its leaves to the pinned frontier
//     must reproduce the new checkpoint's root. After this step the
//     new checkpoint is exactly as trustworthy as the pinned one.
//  3. Sample a few aggregation rounds among the newly covered epochs
//     (client-side randomness; the server's sync hints only say what
//     exists) and verify each receipt from scratch with
//     core.VerifyRound: guest image, proof seal, and the journal's
//     router commitments against the delta entries step 2 verified.
//  4. Spot-check the server's inclusion-proof surface for one sampled
//     epoch against the new checkpoint.
//
// Only then does the client advance its pinned checkpoint. Any
// failure aborts the sync with the pin unchanged — a tampered entry,
// a forged checkpoint, or a bad receipt makes the sync fail loudly
// rather than degrade.
package lightsync

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"

	"zkflow/internal/api"
	"zkflow/internal/core"
	"zkflow/internal/ledger"
	"zkflow/internal/merkle"
	"zkflow/internal/obs"
	"zkflow/internal/zkvm"
)

// Errors reported by the sync protocol.
var (
	// ErrNoCheckpoint: the operator has not sealed any checkpoint.
	ErrNoCheckpoint = errors.New("lightsync: operator has no sealed checkpoint")
	// ErrRegression: the operator served a head behind the pinned one.
	ErrRegression = errors.New("lightsync: operator checkpoint regresses the pinned checkpoint")
	// ErrEquivocation: the operator served a different checkpoint for
	// the pinned position.
	ErrEquivocation = errors.New("lightsync: operator equivocated about the pinned checkpoint")
	// ErrReceipt: a sampled aggregation receipt failed verification.
	ErrReceipt = errors.New("lightsync: sampled receipt failed verification")
	// ErrProof: the inclusion-proof spot check failed.
	ErrProof = errors.New("lightsync: inclusion proof spot check failed")
	// ErrStateDigest: the persisted state is corrupt or hand-edited.
	ErrStateDigest = errors.New("lightsync: state digest mismatch")
)

// State is the light client's entire persistent trust: one checkpoint
// and its digest (a tamper-evidence seal over the serialized form,
// not a security boundary — whoever can edit the state file is
// already inside the trust base).
type State struct {
	Server     string            `json:"server,omitempty"`
	Checkpoint ledger.Checkpoint `json:"checkpoint"`
	Digest     merkle.Hash       `json:"digest"`
}

// Pin creates the initial state from a checkpoint obtained out of
// band or accepted trust-on-first-use. It validates the checkpoint's
// internal consistency; what it cannot do is tell an honest history
// from a fabricated one — that is exactly what pinning means.
func Pin(server string, cp ledger.Checkpoint) (*State, error) {
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	return &State{Server: server, Checkpoint: cp, Digest: cp.Digest()}, nil
}

// Check validates a loaded state against its own digest.
func (s *State) Check() error {
	if err := s.Checkpoint.Validate(); err != nil {
		return err
	}
	if s.Checkpoint.Digest() != s.Digest {
		return ErrStateDigest
	}
	return nil
}

// Options tunes a sync.
type Options struct {
	// Samples is the number of aggregation rounds to spot-verify among
	// the newly covered epochs (capped by what is available); zero or
	// less accepts the server's suggestion.
	Samples int
	// Seed fixes the sampling randomness for reproducible runs; 0
	// draws a fresh seed from crypto/rand.
	Seed int64
	// MinChecks is the receipt soundness floor (zkvm.VerifyOptions).
	MinChecks int
	// Metrics receives the lightsync.* counters (nil = a private
	// registry).
	Metrics *obs.Registry
}

// Report describes one completed sync.
type Report struct {
	From, To      ledger.Checkpoint
	NewEntries    int      // delta entries fetched and verified
	NewEpochs     []uint64 // epochs newly covered by the sync
	SampledRounds []int    // aggregation rounds spot-verified
	SoundnessBits float64  // weakest zkvm.Soundness headline over SampledRounds
	ProofsChecked int      // inclusion proofs verified in step 4
	Bytes         uint64   // response bytes this sync read off the wire
	UpToDate      bool     // the pin did not move: no round past it is served
}

// entryKey addresses one verified commitment.
type entryKey struct {
	router uint32
	epoch  uint64
}

// Sync advances st to the operator's latest checkpoint, verifying
// every step. On any error st is left unchanged. A successful sync
// counts what its Report says it verified; a failed one counts a
// failure and nothing else.
func Sync(ctx context.Context, c *api.Client, st *State, opts Options) (*Report, error) {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	bytes0 := c.BytesRead()
	rep, err := sync(ctx, c, st, opts)
	if err != nil {
		reg.Counter("lightsync.sync_failures").Inc()
		return nil, err
	}
	rep.Bytes = c.BytesRead() - bytes0
	reg.Counter("lightsync.entries_verified").Add(uint64(rep.NewEntries))
	reg.Counter("lightsync.epochs_synced").Add(uint64(len(rep.NewEpochs)))
	reg.Counter("lightsync.receipts_verified").Add(uint64(len(rep.SampledRounds)))
	reg.Counter("lightsync.proofs_checked").Add(uint64(rep.ProofsChecked))
	return rep, nil
}

func sync(ctx context.Context, c *api.Client, st *State, opts Options) (*Report, error) {
	if err := st.Check(); err != nil {
		return nil, err
	}
	from := st.Checkpoint
	rep := &Report{From: from, To: from, UpToDate: true}

	// Step 1: the operator's head, and the newest epoch up to it that
	// has a served round. The head may be sealed before its epoch is
	// proved; pinning past the newest round would skip it for good,
	// because later syncs only ask for rounds past the pin.
	cps, err := c.Checkpoints(ctx)
	if err != nil {
		return nil, err
	}
	if cps.Latest == nil {
		return nil, ErrNoCheckpoint
	}
	head := *cps.Latest
	switch {
	case head.Count < from.Count:
		return nil, fmt.Errorf("%w: pinned %d entries, served %d", ErrRegression, from.Count, head.Count)
	case head.Count == from.Count:
		if head.Digest() != from.Digest() {
			return nil, fmt.Errorf("%w: same count %d, different digest", ErrEquivocation, head.Count)
		}
		return rep, nil
	}
	if err := head.Validate(); err != nil {
		return nil, err
	}
	hints, err := c.SyncHints(ctx, int64(from.Epoch))
	if err != nil {
		return nil, err
	}
	var candidates []api.ReceiptHint
	newest := from.Epoch
	for _, h := range hints.Receipts {
		if h.Epoch > from.Epoch && h.Epoch <= head.Epoch {
			candidates = append(candidates, h)
			newest = max(newest, h.Epoch)
		}
	}
	if len(candidates) == 0 {
		return rep, nil
	}
	to := head
	if newest < head.Epoch {
		if to, err = c.CheckpointByEpoch(ctx, newest); err != nil {
			return nil, err
		}
		if to.Epoch != newest {
			return nil, fmt.Errorf("lightsync: asked for the checkpoint of epoch %d, served epoch %d", newest, to.Epoch)
		}
	}

	// Step 2: delta fetch + extension verification.
	delta, err := c.LedgerRange(ctx, int(from.Count), int(to.Count-from.Count))
	if err != nil {
		return nil, err
	}
	if err := ledger.VerifyExtension(from, delta, to); err != nil {
		return nil, err
	}
	rep.To, rep.NewEntries, rep.UpToDate = to, len(delta), false
	verified := make(map[entryKey]merkle.Hash, len(delta))
	epochSeen := make(map[uint64]bool)
	for _, e := range delta {
		verified[entryKey{e.Router, e.Epoch}] = e.Hash
		if !epochSeen[e.Epoch] {
			epochSeen[e.Epoch] = true
			rep.NewEpochs = append(rep.NewEpochs, e.Epoch)
		}
	}

	// Step 3: sampled receipt verification over the rounds of the newly
	// covered epochs. Hints are operator claims; the sample choice is
	// ours.
	n := opts.Samples
	if n <= 0 {
		// The suggestion is an operator claim: it may not turn
		// receipt checking off.
		n = max(hints.SuggestedSamples, 1)
	}
	n = min(n, len(candidates))
	rng := mrand.New(mrand.NewSource(seed(opts.Seed)))
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	for _, h := range candidates[:n] {
		bits, err := verifyRound(ctx, c, h, verified, opts)
		if err != nil {
			return nil, err
		}
		if len(rep.SampledRounds) == 0 || bits < rep.SoundnessBits {
			rep.SoundnessBits = bits
		}
		rep.SampledRounds = append(rep.SampledRounds, h.Round)
	}

	// Step 4: inclusion-proof spot check against the new pin, on the
	// first sampled epoch.
	if rep.ProofsChecked, err = spotCheckProofs(ctx, c, to, candidates[0].Epoch, verified); err != nil {
		return nil, err
	}

	// All verification passed: advance the pin.
	st.Checkpoint = to
	st.Digest = to.Digest()
	return rep, nil
}

// verifyRound fetches and fully re-verifies one sampled aggregation
// round with core.VerifyRound, against the verified ledger delta, and
// checks that it proves the epoch its hint named. It returns the
// receipt's zkvm.Soundness headline bits.
func verifyRound(ctx context.Context, c *api.Client, h api.ReceiptHint, verified map[entryKey]merkle.Hash, opts Options) (float64, error) {
	receipt, err := c.AggregationReceipt(ctx, h.Round)
	if err != nil {
		return 0, fmt.Errorf("%w: round %d: %w", ErrReceipt, h.Round, err)
	}
	j, err := core.VerifyRound(receipt, zkvm.VerifyOptions{MinChecks: opts.MinChecks}, func(router uint32, epoch uint64) (merkle.Hash, error) {
		hash, ok := verified[entryKey{router, epoch}]
		if !ok {
			return merkle.Hash{}, errors.New("not in the verified delta")
		}
		return hash, nil
	})
	if err != nil {
		return 0, fmt.Errorf("%w: round %d: %w", ErrReceipt, h.Round, err)
	}
	if uint64(j.Epoch) != h.Epoch {
		return 0, fmt.Errorf("%w: round %d proves epoch %d, hint said %d", ErrReceipt, h.Round, j.Epoch, h.Epoch)
	}
	return zkvm.Soundness(receipt).Headline.Bits, nil
}

// spotCheckProofs pulls the server's inclusion proofs for one epoch,
// pinned to the new checkpoint, and verifies each against it.
func spotCheckProofs(ctx context.Context, c *api.Client, cp ledger.Checkpoint, epoch uint64, verified map[entryKey]merkle.Hash) (int, error) {
	resp, err := c.EpochProof(ctx, epoch, &cp)
	if err != nil {
		return 0, fmt.Errorf("%w: epoch %d: %v", ErrProof, epoch, err)
	}
	if resp.Checkpoint.Digest() != cp.Digest() {
		return 0, fmt.Errorf("%w: epoch %d proven against a different checkpoint", ErrProof, epoch)
	}
	for _, ep := range resp.Entries {
		if err := ledger.VerifyInclusion(cp, ep.Entry, ep.Proof); err != nil {
			return 0, fmt.Errorf("%w: epoch %d index %d: %v", ErrProof, epoch, ep.Entry.Index, err)
		}
		if hash, ok := verified[entryKey{ep.Entry.Router, ep.Entry.Epoch}]; ok && hash != ep.Entry.Hash {
			return 0, fmt.Errorf("%w: epoch %d index %d: entry diverges from verified delta", ErrProof, epoch, ep.Entry.Index)
		}
	}
	if len(resp.Entries) == 0 {
		return 0, fmt.Errorf("%w: epoch %d: server returned no proofs", ErrProof, epoch)
	}
	return len(resp.Entries), nil
}

// seed resolves the sampling seed: the fixed one, or fresh entropy.
func seed(fixed int64) int64 {
	if fixed != 0 {
		return fixed
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable enough that a
		// deterministic fallback would be worse than visible: use a
		// constant so tests catch it.
		return 1
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}
