package lightsync

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"zkflow/internal/api"
	"zkflow/internal/core"
	"zkflow/internal/ledger"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
	"zkflow/internal/zkvm"
)

// operator is a full in-process operator the light client syncs from.
type operator struct {
	ts     *httptest.Server
	sim    *router.Sim
	prover *core.Prover
	srv    *api.Server
	lg     *ledger.Ledger
	epochs uint64
	// results holds every round the prover committed, in order: the
	// prover itself keeps only the chain tip.
	results []*core.AggregationResult
}

func newOperator(t *testing.T) *operator {
	t.Helper()
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: 7, NumFlows: 32, Routers: 2}, st, lg)
	prover := core.NewProver(st, lg, core.Options{Checks: 6})
	srv := api.NewServer(prover, lg)
	op := &operator{sim: sim, prover: prover, srv: srv, lg: lg}
	op.ts = httptest.NewServer(srv.Handler())
	t.Cleanup(op.ts.Close)
	return op
}

// advance runs n epochs end to end: collect, publish, checkpoint,
// aggregate, serve.
func (op *operator) advance(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		e := op.epochs
		if _, err := op.sim.RunEpoch(context.Background(), e, 8); err != nil {
			t.Fatal(err)
		}
		res, err := op.prover.AggregateEpoch(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := op.srv.AddAggregationResult(res); err != nil {
			t.Fatal(err)
		}
		op.results = append(op.results, res)
		op.epochs++
	}
}

func (op *operator) client() *api.Client {
	return api.New(op.ts.URL, api.WithHTTPClient(op.ts.Client()), api.WithCache())
}

func (op *operator) pinAt(t *testing.T, epoch uint64) *State {
	t.Helper()
	cp, err := op.lg.CheckpointByEpoch(epoch)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Pin(op.ts.URL, cp)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStateRejectsOldDomain: a state pinned before the node hash
// became one compression carries a digest under the checkpoint domain
// "…/v2". It fails Check with ErrStateDigest, before any network, and
// never extends under the current tree.
func TestStateRejectsOldDomain(t *testing.T) {
	op := newOperator(t)
	op.advance(t, 1)
	st := op.pinAt(t, 0)
	h := sha256.New()
	h.Write([]byte("zkflow/ledger/checkpoint/v2"))
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:], st.Checkpoint.Epoch)
	binary.LittleEndian.PutUint64(buf[8:], st.Checkpoint.Count)
	h.Write(buf[:])
	for _, f := range st.Checkpoint.Frontier {
		h.Write(f[:])
	}
	h.Sum(st.Digest[:0])
	if err := st.Check(); !errors.Is(err, ErrStateDigest) {
		t.Fatalf("state under the v2 domain: %v, want ErrStateDigest", err)
	}
	if _, err := Sync(context.Background(), op.client(), st, Options{}); !errors.Is(err, ErrStateDigest) {
		t.Fatalf("sync from a v2-domain state: %v, want ErrStateDigest", err)
	}
}

func TestSyncAdvancesPin(t *testing.T) {
	op := newOperator(t)
	op.advance(t, 4)
	st := op.pinAt(t, 0)

	rep, err := Sync(context.Background(), op.client(), st, Options{Samples: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoint.Epoch != 3 || st.Checkpoint.Count != 8 {
		t.Fatalf("pin not advanced: %+v", st.Checkpoint)
	}
	if rep.NewEntries != 6 || len(rep.NewEpochs) != 3 {
		t.Fatalf("delta: %+v", rep)
	}
	if len(rep.SampledRounds) != 2 {
		t.Fatalf("sampled %v", rep.SampledRounds)
	}
	want := math.Inf(1)
	for _, r := range rep.SampledRounds {
		want = min(want, zkvm.Soundness(op.results[r].Receipt.(*zkvm.Receipt)).Headline.Bits)
	}
	if rep.SoundnessBits != want {
		t.Fatalf("SoundnessBits = %v, want the weakest sampled headline %v", rep.SoundnessBits, want)
	}
	if rep.ProofsChecked == 0 {
		t.Fatal("no inclusion proofs checked")
	}
	if rep.Bytes == 0 {
		t.Fatal("byte accounting did not move")
	}
	if err := st.Check(); err != nil {
		t.Fatal(err)
	}

	// A second sync is a no-op that leaves the pin intact.
	rep, err = Sync(context.Background(), op.client(), st, Options{Samples: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UpToDate {
		t.Fatalf("expected up-to-date, got %+v", rep)
	}
}

func TestSyncIncremental(t *testing.T) {
	op := newOperator(t)
	op.advance(t, 2)
	st := op.pinAt(t, 1)
	c := op.client()
	if _, err := Sync(context.Background(), c, st, Options{Samples: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	// More epochs appear; the same state syncs forward again.
	op.advance(t, 2)
	rep, err := Sync(context.Background(), c, st, Options{Samples: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoint.Epoch != 3 || rep.NewEntries != 4 {
		t.Fatalf("second sync: pin %+v rep %+v", st.Checkpoint, rep)
	}
}

// TestSyncRejectsTamperedEntry covers both halves of the trust model.
// Rewriting an entry the pin covers changes the frontier the new
// checkpoint folds from, so the extension proof fails outright.
// Rewriting an entry in the new suffix can be made consistent (the
// operator seals a checkpoint over the rewrite), so it is the sampled
// receipt — whose journal binds the true commitments — that catches
// it. Either way the pin must not move.
func TestSyncRejectsTamperedEntry(t *testing.T) {
	op := newOperator(t)
	op.advance(t, 3)

	serve := func(entries []ledger.Commitment) *api.Client {
		t.Helper()
		tampered := api.NewServer(op.prover, mustLedgerFrom(t, entries))
		// The operator still serves its honest receipts — those are
		// what bind it to the true commitments.
		for _, res := range op.results {
			if err := tampered.AddAggregationResult(res); err != nil {
				t.Fatal(err)
			}
		}
		ts := httptest.NewServer(tampered.Handler())
		t.Cleanup(ts.Close)
		return api.New(ts.URL, api.WithHTTPClient(ts.Client()))
	}

	// (a) Tampered pinned-prefix entry: entry 1 is covered by the
	// epoch-0 pin, so the rebuilt ledger no longer extends its frontier.
	st := op.pinAt(t, 0)
	before := st.Checkpoint.Digest()
	entries := op.lg.Entries()
	entries[1].Hash[0] ^= 1
	if _, err := Sync(context.Background(), serve(entries), st, Options{}); err == nil {
		t.Fatal("tampered prefix accepted")
	}
	if st.Checkpoint.Digest() != before {
		t.Fatal("pin moved despite failed sync")
	}

	// (b) Tampered suffix entry under a recomputed (self-consistent)
	// checkpoint: only receipt sampling can catch it — and it must.
	st = op.pinAt(t, 0)
	entries = op.lg.Entries()
	entries[3].Hash[0] ^= 1 // epoch 1, router 1
	_, err := Sync(context.Background(), serve(entries), st, Options{Samples: 2, Seed: 5})
	if !errors.Is(err, ErrReceipt) {
		t.Fatalf("tampered suffix: got %v", err)
	}
	if st.Checkpoint.Digest() != before {
		t.Fatal("pin moved despite failed sync")
	}
}

// mustLedgerFrom builds a ledger with the given (possibly
// doctored) entries and seals a checkpoint over them — it impersonates
// a malicious operator.
func mustLedgerFrom(t *testing.T, entries []ledger.Commitment) *ledger.Ledger {
	t.Helper()
	l, err := ledger.FromEntries(entries)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.SealEpoch(entries[len(entries)-1].Epoch); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestSyncRejectsRegression: an operator serving a shorter history
// than the pin is refused.
func TestSyncRejectsRegression(t *testing.T) {
	op := newOperator(t)
	op.advance(t, 4)
	st := op.pinAt(t, 3)

	// A second operator stuck at epoch 1 (shorter ledger).
	op2 := newOperator(t)
	op2.advance(t, 2)
	_, err := Sync(context.Background(), op2.client(), st, Options{})
	if !errors.Is(err, ErrRegression) {
		t.Fatalf("got %v", err)
	}
}

// TestSyncRejectsForgedCheckpoint: a state whose checkpoint was
// hand-edited fails its own digest check before any network I/O.
func TestSyncRejectsForgedCheckpoint(t *testing.T) {
	op := newOperator(t)
	op.advance(t, 2)
	st := op.pinAt(t, 0)
	st.Checkpoint.Frontier[len(st.Checkpoint.Frontier)-1][0] ^= 1
	if _, err := Sync(context.Background(), op.client(), st, Options{}); err == nil {
		t.Fatal("forged state accepted")
	}
	// And a divergent-history operator (different traffic, same shape)
	// cannot extend an honest pin.
	st2 := op.pinAt(t, 0)
	other := newOperatorSeed(t, 99)
	other.advance(t, 3)
	if _, err := Sync(context.Background(), other.client(), st2, Options{}); err == nil {
		t.Fatal("divergent history accepted")
	}
}

func newOperatorSeed(t *testing.T, seed int64) *operator {
	t.Helper()
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: seed, NumFlows: 32, Routers: 2}, st, lg)
	prover := core.NewProver(st, lg, core.Options{Checks: 6})
	srv := api.NewServer(prover, lg)
	op := &operator{sim: sim, prover: prover, srv: srv, lg: lg}
	op.ts = httptest.NewServer(srv.Handler())
	t.Cleanup(op.ts.Close)
	return op
}

// TestSyncRejectsTamperedReceipt: receipts corrupted in flight (a
// tampering middlebox, or an operator swapping artifacts) fail the
// sampled verification — one bound to any image but the aggregation
// guest's before its seal is looked at.
func TestSyncRejectsTamperedReceipt(t *testing.T) {
	op := newOperator(t)
	op.advance(t, 3)
	inner := op.srv.Handler()
	// The image ID follows the magic and the segment count.
	for _, at := range []int{8, 200} { // a byte of the image ID, of the journal
		st := op.pinAt(t, 0)
		proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasPrefix(r.URL.Path, "/api/v1/receipts/agg/") {
				inner.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if len(body) > at {
				body[at] ^= 0xff
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		}))
		// Sample every round past the pin so a corrupted receipt is hit.
		_, err := Sync(context.Background(), api.New(proxy.URL, api.WithHTTPClient(proxy.Client())), st, Options{Samples: 2, Seed: 5})
		proxy.Close()
		if !errors.Is(err, ErrReceipt) {
			t.Fatalf("byte %d flipped: got %v", at, err)
		}
		if at == 8 && !errors.Is(err, core.ErrWrongProgram) {
			t.Fatalf("image ID flipped: refused for another reason: %v", err)
		}
	}
}

// TestSyncWaitsForUnprovedEpoch: the operator seals an epoch's
// checkpoint before it proves the epoch. A sync in that window pins the
// newest epoch that has a round, so the next sync still samples the
// round once it is served; a sync with no new round leaves the pin and
// verifies nothing.
func TestSyncWaitsForUnprovedEpoch(t *testing.T) {
	op := newOperator(t)
	op.advance(t, 2)
	st := op.pinAt(t, 0)
	c := op.client()
	// Epoch 2 is collected and checkpointed, not yet proved.
	if _, err := op.sim.RunEpoch(context.Background(), 2, 8); err != nil {
		t.Fatal(err)
	}
	rep, err := Sync(context.Background(), c, st, Options{Samples: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoint.Epoch != 1 || !slices.Equal(rep.SampledRounds, []int{1}) {
		t.Fatalf("pinned epoch %d having sampled %v, want epoch 1 and [1]", st.Checkpoint.Epoch, rep.SampledRounds)
	}
	rep, err = Sync(context.Background(), c, st, Options{Samples: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UpToDate || st.Checkpoint.Epoch != 1 || len(rep.SampledRounds) != 0 {
		t.Fatalf("no new round: pinned epoch %d, report %+v", st.Checkpoint.Epoch, rep)
	}
	res, err := op.prover.AggregateEpoch(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.srv.AddAggregationResult(res); err != nil {
		t.Fatal(err)
	}
	rep, err = Sync(context.Background(), c, st, Options{Samples: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoint.Epoch != 2 || !slices.Equal(rep.SampledRounds, []int{2}) {
		t.Fatalf("pinned epoch %d having sampled %v, want epoch 2 and [2]", st.Checkpoint.Epoch, rep.SampledRounds)
	}
}

// TestSyncAlwaysVerifiesAReceipt: no Samples value and no server
// suggestion turns receipt checking off. An operator whose hints
// suggest zero samples still gets one round verified.
func TestSyncAlwaysVerifiesAReceipt(t *testing.T) {
	op := newOperator(t)
	op.advance(t, 3)
	inner := op.srv.Handler()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/v1/sync/hints" {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		var hints api.SyncHints
		if err := json.Unmarshal(rec.Body.Bytes(), &hints); err != nil {
			t.Error(err)
		}
		hints.SuggestedSamples = 0
		json.NewEncoder(w).Encode(hints)
	}))
	defer proxy.Close()
	for _, samples := range []int{0, -1} {
		st := op.pinAt(t, 0)
		rep, err := Sync(context.Background(), api.New(proxy.URL, api.WithHTTPClient(proxy.Client())), st, Options{Samples: samples})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.SampledRounds) != 1 {
			t.Fatalf("Samples %d under a zero suggestion: verified rounds %v, want one", samples, rep.SampledRounds)
		}
	}
}

// TestSyncCacheRevalidation: re-running a sync with a warm client
// cache turns immutable fetches into 304s.
func TestSyncCacheRevalidation(t *testing.T) {
	op := newOperator(t)
	op.advance(t, 3)
	c := op.client()
	st := op.pinAt(t, 0)
	if _, err := Sync(context.Background(), c, st, Options{Samples: 1, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	// Re-sync from the same original pin with the same warm client.
	st2 := op.pinAt(t, 0)
	hits := c.CacheHits()
	if _, err := Sync(context.Background(), c, st2, Options{Samples: 1, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if c.CacheHits() == hits {
		t.Fatal("no cache revalidations on a warm re-sync")
	}
}

// TestSyncCompositeReceipts: a light client syncs an operator that
// proves its rounds as continuation chains — sampled rounds arrive as
// many-segment receipts, and each verifies in full under the MinChecks
// floor before the pin advances.
func TestSyncCompositeReceipts(t *testing.T) {
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: 11, NumFlows: 32, Routers: 2}, st, lg)
	prover := core.NewProver(st, lg, core.Options{Checks: 6, SegmentCycles: 1 << 10})
	srv := api.NewServer(prover, lg)
	op := &operator{sim: sim, prover: prover, srv: srv, lg: lg}
	op.ts = httptest.NewServer(srv.Handler())
	t.Cleanup(op.ts.Close)
	op.advance(t, 3)

	c := op.client()
	hints, err := c.SyncHints(context.Background(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hints.Receipts) != 3 {
		t.Fatalf("hints list %d rounds, want 3", len(hints.Receipts))
	}

	pin := op.pinAt(t, 0)
	rep, err := Sync(context.Background(), c, pin, Options{Samples: 2, Seed: 13, MinChecks: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SampledRounds) != 2 {
		t.Fatalf("sampled %v", rep.SampledRounds)
	}
	if pin.Checkpoint.Epoch != 2 {
		t.Fatalf("pin not advanced: %+v", pin.Checkpoint)
	}
}
