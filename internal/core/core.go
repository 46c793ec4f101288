// Package core assembles the full verifiable-telemetry system of the
// paper (Figure 1): a Prover that aggregates committed router logs
// into the CLog and answers queries, both under zkVM proofs, and a
// Verifier that — holding only public data (the guest programs, the
// commitment ledger, and the receipts) — maintains a trusted view of
// the CLog root across rounds and validates query results against it.
//
// The trust chain works as follows. Round n's aggregation receipt
// journals (a) the SHA-256 of round n-1's journal, (b) the previous
// CLog root it authenticated in-VM, (c) the epoch and every router
// commitment it checked, and (d) the new root. The verifier checks
// the zkVM seal, matches (a) against its stored hash, (b) against its
// stored root, and (c) against the public ledger, then advances to
// (d). Query receipts journal the root they re-authenticated in-VM,
// which must equal the verifier's current root. Algorithm 1's
// "VerifyProof(π_prev)" is realised by this receipt chaining rather
// than in-guest recursive verification (RISC Zero uses recursion; see
// DESIGN.md §1).
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"zkflow/internal/clog"
	"zkflow/internal/guest"
	"zkflow/internal/ledger"
	"zkflow/internal/merkle"
	"zkflow/internal/obs"
	"zkflow/internal/query"
	"zkflow/internal/store"
	"zkflow/internal/vmtree"
	"zkflow/internal/zkvm"
)

// ProveFunc generates a receipt for a guest run. It is the one proving
// hook: the default is zkvm.ProveAny, and what plugs in here is a
// wrapper around it, such as the benchmark's tracing hook. The receipt
// is a *zkvm.Receipt: a chain of opts.SegmentCycles-step segments
// (zkvm.DefaultSegmentCycles when that is zero).
type ProveFunc func(prog *zkvm.Program, input []uint32, opts zkvm.ProveOptions) (zkvm.AnyReceipt, error)

// Options configures proof generation.
type Options struct {
	// Checks is the zkVM sampled-check count (0 = zkvm default).
	Checks int
	// SegmentCycles is where aggregation and query runs are cut into
	// continuation segments, sealed concurrently (0 =
	// zkvm.DefaultSegmentCycles; see zkvm.ProveOptions.SegmentCycles).
	SegmentCycles int
	// Prove wraps the prover (nil = zkvm.ProveAny); the benchmark's
	// tracing hook is its one user.
	Prove ProveFunc
	// Metrics, when non-nil, receives the prover's observability
	// stream: round/query counters and latencies, discarded
	// speculative seals, and the per-stage zkVM prover breakdown (see
	// metrics.go for the name schema). nil meters into a private
	// registry and attaches no stage observer to the prover.
	Metrics *obs.Registry
}

// prove proves one guest run, aggregation or query, through the hook.
func (o Options) prove(prog *zkvm.Program, input []uint32) (zkvm.AnyReceipt, error) {
	po := zkvm.ProveOptions{Checks: o.Checks, SegmentCycles: o.SegmentCycles}
	if o.Metrics != nil {
		po.Observer = obs.NewStageRecorder(o.Metrics, "prover.stage.")
	}
	if o.Prove != nil {
		return o.Prove(prog, input, po)
	}
	return zkvm.ProveAny(prog, input, po)
}

// AggregationResult is one completed aggregation round. Receipt is a
// *zkvm.Receipt.
type AggregationResult struct {
	Epoch   uint64
	Receipt zkvm.AnyReceipt
	Journal *guest.AggJournal
}

// QueryResult is a proven query response: what the prover hands the
// client.
type QueryResult struct {
	SQL     string
	Receipt *zkvm.Receipt
	Journal *guest.QueryJournal
}

// Result returns the aggregate value.
func (r *QueryResult) Result() uint64 { return r.Journal.Result() }

// Prover is the service-provider side: it owns the private telemetry
// (store) and produces receipts. Safe for concurrent queries;
// aggregation calls run one at a time.
type Prover struct {
	aggMu   sync.Mutex // serialises AggregateEpochs calls
	mu      sync.Mutex
	store   *store.Store
	ledger  *ledger.Ledger
	opts    Options
	entries []clog.Entry // current CLog (private)
	// The chain tip the next round's witness extends: the number of
	// committed rounds, the hash of the last committed journal and that
	// journal's new CLog root. Old rounds are not kept; serving their
	// receipts is the API server's job.
	rounds   int
	lastHash vmtree.Digest
	lastRoot vmtree.Digest
	met      *metrics
}

// NewProver creates a prover over a store and ledger.
func NewProver(st *store.Store, lg *ledger.Ledger, opts Options) *Prover {
	return &Prover{store: st, ledger: lg, opts: opts, met: newMetrics(opts.Metrics)}
}

// Round returns the number of completed aggregation rounds.
func (p *Prover) Round() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rounds
}

// AggregateEpoch runs one Algorithm 1 round over the given epoch's
// store contents and ledger commitments, producing a receipt and
// advancing the prover's CLog: AggregateEpochs of one epoch. Tampered
// inputs make the guest abort, so no receipt can be produced — the
// error carries the abort code. Concurrent calls run one after another.
func (p *Prover) AggregateEpoch(epoch uint64) (*AggregationResult, error) {
	res, err := p.AggregateEpochs([]uint64{epoch})
	return res[0], err
}

// Query compiles, executes, and proves a SQL query over the current
// CLog snapshot.
func (p *Prover) Query(sql string) (qres *QueryResult, err error) {
	t0 := time.Now()
	defer func() { p.met.queryDone(time.Since(t0).Seconds(), err) }()
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	entries := p.entries
	p.mu.Unlock()

	prog := guest.QueryProgram(q)
	anyReceipt, err := p.opts.prove(prog, guest.QueryInput(entries))
	if err != nil {
		return nil, fmt.Errorf("core: query proof: %w", err)
	}
	receipt, ok := anyReceipt.(*zkvm.Receipt)
	if !ok {
		return nil, fmt.Errorf("core: query proof: backend returned %T", anyReceipt)
	}
	j, err := guest.ParseQueryJournal(receipt.JournalWords())
	if err != nil {
		return nil, fmt.Errorf("core: query journal: %w", err)
	}
	return &QueryResult{SQL: sql, Receipt: receipt, Journal: j}, nil
}

// Verification errors.
var (
	// ErrChainBroken reports an aggregation receipt that does not
	// extend the verifier's current state.
	ErrChainBroken = errors.New("core: aggregation chain broken")
	// ErrCommitmentMismatch reports a journaled router commitment
	// absent from or different on the public ledger.
	ErrCommitmentMismatch = errors.New("core: router commitment does not match ledger")
	// ErrStaleRoot reports a query proven against a CLog root other
	// than the verifier's current one.
	ErrStaleRoot = errors.New("core: query root is not the current aggregate root")
	// ErrWrongProgram reports a receipt bound to an unexpected guest.
	ErrWrongProgram = errors.New("core: receipt bound to unexpected guest program")
)

// Verifier is the client (auditor) side. It never sees RLogs or CLogs —
// only receipts, the public ledger, and the guest programs it
// recompiles itself.
type Verifier struct {
	mu              sync.Mutex
	ledger          *ledger.Ledger
	trustedRoot     vmtree.Digest
	lastJournalHash vmtree.Digest
	rounds          int
	verifyOpts      zkvm.VerifyOptions
}

// NewVerifier creates a verifier reading the public ledger. Its
// initial trusted state is the genesis (empty CLog, zero chain hash).
func NewVerifier(lg *ledger.Ledger) *Verifier {
	return &Verifier{ledger: lg}
}

// SetMinChecks sets the soundness floor: receipts whose seals carry
// fewer sampled checks are rejected. Production auditors should set
// this to zkvm.DefaultChecks or higher.
func (v *Verifier) SetMinChecks(k int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.verifyOpts.MinChecks = k
}

// TrustedRoot returns the currently trusted CLog root.
func (v *Verifier) TrustedRoot() vmtree.Digest {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.trustedRoot
}

// Rounds returns the number of aggregation rounds verified.
func (v *Verifier) Rounds() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.rounds
}

// VerifyRound checks one aggregation receipt on its own: it is bound to
// the aggregation guest's image, its seal verifies under opts, and
// every router commitment its journal carries is the one commitment
// returns for that (router, epoch). Whether the round extends a chain
// is the caller's check.
func VerifyRound(receipt zkvm.AnyReceipt, opts zkvm.VerifyOptions, commitment func(router uint32, epoch uint64) (merkle.Hash, error)) (*guest.AggJournal, error) {
	prog := guest.AggregationProgram()
	if receipt.Image() != prog.ID() {
		return nil, fmt.Errorf("%w: aggregation receipt image %v", ErrWrongProgram, receipt.Image())
	}
	if err := zkvm.VerifyAny(prog, receipt, opts); err != nil {
		return nil, err
	}
	j, err := guest.ParseAggJournal(receipt.JournalWords())
	if err != nil {
		return nil, err
	}
	for i, id := range j.RouterIDs {
		hash, err := commitment(id, uint64(j.Epoch))
		if err != nil {
			return nil, fmt.Errorf("%w: router %d epoch %d: %v", ErrCommitmentMismatch, id, j.Epoch, err)
		}
		if vmtree.FromBytes(hash) != j.Commitments[i] {
			return nil, fmt.Errorf("%w: router %d epoch %d", ErrCommitmentMismatch, id, j.Epoch)
		}
	}
	return j, nil
}

// VerifyAggregation checks one aggregation receipt against the public
// ledger (VerifyRound) and that it extends the verified chain, and on
// success advances the verifier's trusted root and chain hash.
func (v *Verifier) VerifyAggregation(receipt zkvm.AnyReceipt) (*guest.AggJournal, error) {
	v.mu.Lock()
	defer v.mu.Unlock()

	j, err := VerifyRound(receipt, v.verifyOpts, func(router uint32, epoch uint64) (merkle.Hash, error) {
		com, err := v.ledger.Lookup(router, epoch)
		return com.Hash, err
	})
	if err != nil {
		return nil, err
	}
	if j.PrevJournalHash != v.lastJournalHash {
		return nil, fmt.Errorf("%w: journal chain hash mismatch at round %d", ErrChainBroken, v.rounds)
	}
	if j.PrevRoot != v.trustedRoot {
		return nil, fmt.Errorf("%w: previous root mismatch at round %d", ErrChainBroken, v.rounds)
	}
	v.trustedRoot = j.NewRoot
	v.lastJournalHash = vmtree.HashWords(receipt.JournalWords())
	v.rounds++
	return j, nil
}

// VerifyQuery checks a query receipt: the seal verifies under the
// program recompiled from sql (binding the result to the exact
// query), and the root the guest re-authenticated equals the
// verifier's trusted root. Returns the proven result.
func (v *Verifier) VerifyQuery(sql string, receipt *zkvm.Receipt) (*guest.QueryJournal, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	prog := guest.QueryProgram(q)
	if receipt.Image() != prog.ID() {
		return nil, fmt.Errorf("%w: query receipt image %v", ErrWrongProgram, receipt.Image())
	}
	if err := zkvm.Verify(prog, receipt, v.verifyOpts); err != nil {
		return nil, err
	}
	j, err := guest.ParseQueryJournal(receipt.JournalWords())
	if err != nil {
		return nil, err
	}
	v.mu.Lock()
	root := v.trustedRoot
	v.mu.Unlock()
	if j.Root != root {
		return nil, fmt.Errorf("%w: proven against %v, trusted %v", ErrStaleRoot, j.Root.Bytes(), root.Bytes())
	}
	return j, nil
}
