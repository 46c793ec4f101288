// Package fold collapses a multi-segment composite receipt into one
// bounded-size FoldedReceipt with O(1) verification, independent of
// how many segments the prover (or the prover farm) used.
//
// EXPERIMENTS.md E15 measures the problem: receipt size and verify time
// are linear in segment count — 305 KB / 2.3 ms for a monolithic
// receipt versus 5342 KB / 34 ms at 12 segments. A light client that
// downloads the composite pays for every segment. The fold step runs
// once, at the prover: it performs the full composite verification
// (every segment seal plus the exit(i) == entry(i+1) linkage chain),
// reduces each verified segment receipt to a leaf digest, folds the
// leaves pairwise in a binary tree (⌈log2 N⌉ rounds), and binds the
// resulting statement — image, exit code, journal, segment count,
// minimum sampled-check count, fold root — to a fixed-length
// fastagg-style chain STARK under a fold-specific Fiat–Shamir
// transcript. The emitted receipt has constant size and constant
// verify cost regardless of N.
//
// Soundness model — read this before relying on a folded receipt.
// The binding proof is NOT recursive verification: it is a
// fixed-length sequential-work chain STARK whose input derives from
// the statement digest. It binds the receipt to one specific
// Statement — mutating any field (fold root, journal, exit code,
// check count) changes the expected chain input and breaks the
// transcript — but nothing in it proves the inner segment seals were
// ever verified, or even existed. Anyone can run ProveChain over an
// arbitrary forged Statement at roughly the cost of one verification
// and emit a FoldedReceipt that passes VerifyReceipt. A folded
// receipt is therefore a *prover-trusted integrity binding*: it
// pins down what the prover claims, it does not independently
// establish that the claim is true.
//
// The machinery enforces that distinction instead of leaving it to
// documentation. FoldedReceipt reports zkvm.ProverTrusted, so
// zkvm.VerifyAny rejects it unless the caller opts in with
// VerifyOptions.AcceptProverTrusted; verifiers that want soundness
// audit the retained composite instead — fetch it (the API serves it
// at /api/v1/receipts/agg/{round}/audit), run the full composite
// verification, and cross-check it against the folded statement with
// AuditBinding. That is what lightsync does for sampled folded
// rounds by default. The fold's honest value is operational: the
// prover verifies its own composite once (refusing to publish a
// round whose seals do not check out), and steady-state consumers
// that have decided to trust the operator — or that audit a sample —
// stop paying per segment. Downstream, the verifier's journal
// cross-checks against ledger commitments (core.Verifier, lightsync)
// are unchanged and remain the end-to-end backstop for the
// *contents* of a round, whichever receipt form carried it.
package fold

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"

	"zkflow/internal/fastagg"
	"zkflow/internal/field"
	"zkflow/internal/gperm"
	"zkflow/internal/par"
	"zkflow/internal/stark"
	"zkflow/internal/transcript"
	"zkflow/internal/zkvm"
)

// ChainRows is the fixed trace length of the binding chain STARK.
// Fixing it makes FoldedReceipt size and verify time exact constants:
// the proof covers ChainRows-1 permutation rounds no matter how many
// segments were folded.
const ChainRows = 512

// foldSeedTag domain-separates the chain-input derivation from other
// SeedFromRoot-style uses of the permutation.
const foldSeedTag = 0x666f6c64 // "fold"

// Statement is the public claim of a folded receipt: the composite's
// public outputs plus the fold-tree root over its segment receipts.
type Statement struct {
	Image    zkvm.ImageID
	ExitCode uint32
	Journal  []uint32
	// Segments is the number of inner segment receipts folded.
	Segments uint32
	// InnerChecks is the minimum sampled-check count across the inner
	// seals; verifiers enforce VerifyOptions.MinChecks against it.
	InnerChecks uint32
	// Root is the pairwise fold of the segment receipt leaf digests.
	Root gperm.Digest
}

// LeafDigest reduces one segment receipt to its fold-tree leaf: the
// gperm hash of its canonical encoding. Any bit of the receipt —
// seal, journal slice, boundary states, index — changes the leaf.
func LeafDigest(sr *zkvm.SegmentReceipt) (gperm.Digest, error) {
	raw, err := zkvm.MarshalSegmentReceipt(sr)
	if err != nil {
		return gperm.Digest{}, err
	}
	return gperm.HashBytes(raw), nil
}

// FoldDigests folds leaves pairwise into a single root in ⌈log2 N⌉
// rounds. An odd tail node is promoted unchanged, so the schedule is
// the standard left-balanced binary tree and the root is a pure
// function of the ordered leaf sequence.
func FoldDigests(leaves []gperm.Digest) gperm.Digest {
	if len(leaves) == 0 {
		return gperm.Digest{}
	}
	level := leaves
	for len(level) > 1 {
		next := make([]gperm.Digest, 0, (len(level)+1)/2)
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, gperm.HashTwo(level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0]
}

// LeafFunc verifies the seal of every segment receipt and returns the
// leaf digests in segment order. internal/remote provides a farm
// implementation; the hook keeps fold free of a dependency on the
// dispatch plane.
type LeafFunc func(prog *zkvm.Program, segs []*zkvm.SegmentReceipt) ([]gperm.Digest, error)

// Options configures a fold. The STARK parameters of the binding
// chain proof are not configurable: the protocol pins
// stark.DefaultParams so every verifier agrees on the proof shape.
type Options struct {
	// Verify is applied to every inner segment seal.
	Verify zkvm.VerifyOptions
	// Parallelism bounds the local leaf workers (verify + digest per
	// segment) and the chain STARK's prover fan-out. 0 means
	// GOMAXPROCS. Receipts are byte-identical at any value.
	Parallelism int
	// Observer, when non-nil, receives per-substage wall times from
	// the chain STARK prover (see stark.Stages). Telemetry only; it
	// does not affect the receipt.
	Observer stark.StageObserver
	// Leaves, when set, runs the leaf stage remotely (e.g. on the
	// prover farm). The returned digests are cross-checked locally, so
	// a faulty worker cannot corrupt the fold root — but the digest is
	// a cheap hash of the receipt bytes, so the cross-check cannot
	// tell whether the worker actually ran the seal verification it
	// was asked to. SpotChecks bounds that risk.
	Leaves LeafFunc
	// SpotChecks is the number of randomly chosen segments whose seals
	// are re-verified locally after a remote leaf stage, catching a
	// worker that returns correct digests without doing the
	// verification work. 0 means DefaultSpotChecks; negative disables
	// (trusted farm); values above the segment count are capped. A
	// worker that skips verification on a bad seal survives one fold
	// with probability at most (1 - bad/N)^SpotChecks per round, and
	// detection compounds across rounds. Ignored for local leaf
	// stages, which always verify every seal. Spot checks do not
	// affect the receipt bytes.
	SpotChecks int
}

// DefaultSpotChecks is the per-fold local re-verification sample used
// when Options.SpotChecks is zero and the leaf stage is remote.
const DefaultSpotChecks = 2

// ErrReject wraps fold verification failures.
var ErrReject = errors.New("fold: receipt rejected")

// checkChain applies the chain-level composite rules locally: segment
// indices and final flags, genesis entry, and exit(i) == entry(i+1)
// linkage. Together with a per-segment seal check (local or farmed)
// this is exactly zkvm.VerifyComposite.
func checkChain(c *zkvm.CompositeReceipt) error {
	n := len(c.Segments)
	if n < 1 {
		return fmt.Errorf("%w: composite receipt with no segments", ErrReject)
	}
	for i, sr := range c.Segments {
		if int(sr.Index) != i {
			return fmt.Errorf("%w: segment %d carries index %d", ErrReject, i, sr.Index)
		}
		if sr.Final != (i == n-1) {
			return fmt.Errorf("%w: segment %d final flag %v in a %d-segment chain", ErrReject, i, sr.Final, n)
		}
	}
	if c.Segments[0].Entry != zkvm.GenesisState() {
		return fmt.Errorf("%w: segment 0 does not enter at the genesis state", ErrReject)
	}
	for i := 1; i < n; i++ {
		if c.Segments[i].Entry != c.Segments[i-1].Exit {
			return fmt.Errorf("%w: boundary %d: entry state does not match previous exit state", ErrReject, i)
		}
	}
	return nil
}

// localLeaves verifies every segment seal and digests it, fanning the
// per-segment work across workers. The output order is the segment
// order regardless of completion order, so the fold root — and hence
// the receipt bytes — are identical at any parallelism.
func localLeaves(prog *zkvm.Program, segs []*zkvm.SegmentReceipt, opts Options) ([]gperm.Digest, error) {
	leaves := make([]gperm.Digest, len(segs))
	errs := make([]error, len(segs))
	par.Each(opts.Parallelism, len(segs), func(i int) {
		if errs[i] = zkvm.VerifySegment(prog, segs[i], opts.Verify); errs[i] == nil {
			leaves[i], errs[i] = LeafDigest(segs[i])
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%w: segment %d: %v", ErrReject, i, err)
		}
	}
	return leaves, nil
}

// Fold verifies the composite in full and collapses it into a
// FoldedReceipt. The per-segment seal checks (the expensive stage)
// run locally in parallel or, via Options.Leaves, on the prover farm;
// the chain rules, the fold tree, and the binding proof always run
// locally. The receipt bytes are a pure function of the composite and
// the STARK parameters — identical at any parallelism or worker
// count.
func Fold(prog *zkvm.Program, c *zkvm.CompositeReceipt, opts Options) (*FoldedReceipt, error) {
	if err := checkChain(c); err != nil {
		return nil, err
	}
	// Exit-code policy mirrors the composite verifier: refuse to fold
	// a failed run unless the caller explicitly allows it.
	exit := c.ExitStatus()
	if exit != 0 && !opts.Verify.AllowNonZeroExit {
		return nil, fmt.Errorf("%w: guest exit code %d", ErrReject, exit)
	}

	var leaves []gperm.Digest
	var err error
	if opts.Leaves != nil {
		leaves, err = opts.Leaves(prog, c.Segments)
		if err != nil {
			return nil, fmt.Errorf("%w: leaf stage: %v", ErrReject, err)
		}
		if len(leaves) != len(c.Segments) {
			return nil, fmt.Errorf("%w: leaf stage returned %d digests for %d segments", ErrReject, len(leaves), len(c.Segments))
		}
		// The digest is cheap to recompute; cross-check so a faulty
		// worker cannot corrupt the fold root.
		for i, sr := range c.Segments {
			want, derr := LeafDigest(sr)
			if derr != nil {
				return nil, fmt.Errorf("%w: segment %d: %v", ErrReject, i, derr)
			}
			if leaves[i] != want {
				return nil, fmt.Errorf("%w: segment %d: leaf digest mismatch from remote worker", ErrReject, i)
			}
		}
		// The digest cross-check cannot tell whether the worker ran
		// the seal verification; re-verify a random sample locally.
		if err := spotCheckSeals(prog, c.Segments, opts); err != nil {
			return nil, err
		}
	} else {
		leaves, err = localLeaves(prog, c.Segments, opts)
		if err != nil {
			return nil, err
		}
	}

	stmt := statementOf(c, exit, FoldDigests(leaves))
	// The proof-shape parameters stay pinned to DefaultParams;
	// Parallelism and Observer are prover-side throughput/telemetry
	// knobs that never reach the transcript or the receipt bytes.
	chainParams := stark.DefaultParams
	chainParams.Parallelism = opts.Parallelism
	chainParams.Observer = opts.Observer
	proof, err := fastagg.ProveChain(chainInput(stmt), ChainRows, chainParams, statementTranscript(stmt))
	if err != nil {
		return nil, fmt.Errorf("fold: chain proof: %w", err)
	}
	return &FoldedReceipt{Stmt: stmt, Chain: proof}, nil
}

// spotCheckSeals re-verifies SpotChecks randomly chosen segment seals
// locally after a remote leaf stage. Sampling uses crypto/rand so a
// verification-skipping worker cannot predict which segments will be
// checked; it does not touch the fold statement, so receipt bytes
// stay deterministic.
func spotCheckSeals(prog *zkvm.Program, segs []*zkvm.SegmentReceipt, opts Options) error {
	k := opts.SpotChecks
	if k == 0 {
		k = DefaultSpotChecks
	}
	if k < 0 {
		return nil
	}
	if k > len(segs) {
		k = len(segs)
	}
	perm := make([]int, len(segs))
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < k; i++ {
		j, err := rand.Int(rand.Reader, big.NewInt(int64(len(perm)-i)))
		if err != nil {
			return fmt.Errorf("fold: spot-check sampling: %w", err)
		}
		pick := i + int(j.Int64())
		perm[i], perm[pick] = perm[pick], perm[i]
		idx := perm[i]
		if err := zkvm.VerifySegment(prog, segs[idx], opts.Verify); err != nil {
			return fmt.Errorf("%w: spot check: segment %d: %v", ErrReject, idx, err)
		}
	}
	return nil
}

// statementOf derives the fold statement from a composite's public
// outputs and the fold root over its segment leaves.
func statementOf(c *zkvm.CompositeReceipt, exit uint32, root gperm.Digest) Statement {
	inner := ^uint32(0)
	for _, sr := range c.Segments {
		if k := uint32(len(sr.Seal.ExecChecks)); k < inner {
			inner = k
		}
	}
	return Statement{
		Image:       c.Image(),
		ExitCode:    exit,
		Journal:     append([]uint32(nil), c.JournalWords()...),
		Segments:    uint32(len(c.Segments)),
		InnerChecks: inner,
		Root:        root,
	}
}

// AuditBinding checks that a folded receipt is the fold of exactly
// this composite: it re-derives the statement (journal, exit code,
// segment count, minimum check count, and the fold root over the
// segment leaf digests) from the composite and compares it
// field-by-field against fr.Stmt. It does NOT verify any seals — the
// caller establishes the composite's own soundness first (typically
// zkvm.VerifyAny on the composite), then AuditBinding closes the
// loop: the self-sound artifact and the prover-trusted folded form
// describe the same execution. This is the sound escalation path for
// folded rounds (served at /api/v1/receipts/agg/{round}/audit).
func AuditBinding(fr *FoldedReceipt, c *zkvm.CompositeReceipt) error {
	if fr == nil || c == nil {
		return fmt.Errorf("%w: audit binding: nil receipt", ErrReject)
	}
	if err := checkChain(c); err != nil {
		return err
	}
	leaves := make([]gperm.Digest, len(c.Segments))
	for i, sr := range c.Segments {
		d, err := LeafDigest(sr)
		if err != nil {
			return fmt.Errorf("%w: audit binding: segment %d: %v", ErrReject, i, err)
		}
		leaves[i] = d
	}
	want := statementOf(c, c.ExitStatus(), FoldDigests(leaves))
	got := fr.Stmt
	switch {
	case got.Image != want.Image:
		return fmt.Errorf("%w: audit binding: image mismatch", ErrReject)
	case got.ExitCode != want.ExitCode:
		return fmt.Errorf("%w: audit binding: exit code %d, composite has %d", ErrReject, got.ExitCode, want.ExitCode)
	case got.Segments != want.Segments:
		return fmt.Errorf("%w: audit binding: %d segments, composite has %d", ErrReject, got.Segments, want.Segments)
	case got.InnerChecks != want.InnerChecks:
		return fmt.Errorf("%w: audit binding: inner checks %d, composite has %d", ErrReject, got.InnerChecks, want.InnerChecks)
	case got.Root != want.Root:
		return fmt.Errorf("%w: audit binding: fold root does not match the composite's segment leaves", ErrReject)
	case len(got.Journal) != len(want.Journal):
		return fmt.Errorf("%w: audit binding: journal length %d, composite has %d", ErrReject, len(got.Journal), len(want.Journal))
	}
	for i := range want.Journal {
		if got.Journal[i] != want.Journal[i] {
			return fmt.Errorf("%w: audit binding: journal word %d differs", ErrReject, i)
		}
	}
	return nil
}

// statementDigest canonically hashes the fold statement.
func statementDigest(s Statement) gperm.Digest {
	return gperm.HashBytes(encodeStatement(s))
}

// chainInput derives the binding chain's input state from the
// statement digest, mirroring fastagg.SeedFromRoot.
func chainInput(s Statement) gperm.State {
	d := statementDigest(s)
	var st gperm.State
	copy(st[:gperm.DigestLen], d[:])
	st[gperm.Width-1] = field.New(foldSeedTag)
	st.Permute()
	return st
}

// statementTranscript opens the fold Fiat–Shamir transcript and
// absorbs the full public statement; fastagg layers the chain
// statement on top.
func statementTranscript(s Statement) *transcript.Transcript {
	tr := transcript.New("fold-receipt-v1")
	tr.Append("image", s.Image[:])
	tr.AppendUint64("exit", uint64(s.ExitCode))
	tr.Append("journal", journalBytes(s.Journal))
	tr.AppendUint64("segments", uint64(s.Segments))
	tr.AppendUint64("inner-checks", uint64(s.InnerChecks))
	tr.AppendElems("fold-root", s.Root[:]...)
	return tr
}
