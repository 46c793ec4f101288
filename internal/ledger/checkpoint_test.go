package ledger

import (
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"zkflow/internal/merkle"
)

// publishN publishes n commitments (router i%4, epoch i/4) and seals
// a checkpoint after each epoch's 4 routers.
func publishN(t testing.TB, l *Ledger, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Publish(uint32(i%4), uint64(i/4), h(byte(i+1))); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			if _, err := l.SealEpoch(uint64(i / 4)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFrontierMatchesTree pins the frontier against the reference
// tree builder for every count: identical roots, and a branch that is
// a valid checkpoint frontier.
func TestFrontierMatchesTree(t *testing.T) {
	var f Checkpoint
	var leaves []merkle.Hash
	if got, want := f.Root(), merkle.BuildHashes(nil).Root(); got != want {
		t.Fatalf("empty frontier root %v, tree %v", got, want)
	}
	for i := 0; i < 300; i++ {
		leaf := merkle.LeafHash([]byte{byte(i), byte(i >> 8), 0xab})
		f.extend(leaf)
		leaves = append(leaves, leaf)
		if got, want := f.Root(), merkle.BuildHashes(leaves).Root(); got != want {
			t.Fatalf("count %d: frontier root %v, tree root %v", i+1, got, want)
		}
		// The extended frontier is a valid checkpoint's — what a
		// light client does with one.
		if err := f.Validate(); err != nil {
			t.Fatalf("count %d: %v", i+1, err)
		}
	}
}

func TestSealEpochAndLookup(t *testing.T) {
	l := New()
	publishN(t, l, 12) // 3 epochs x 4 routers
	cps := l.Checkpoints()
	if len(cps) != 3 {
		t.Fatalf("%d checkpoints", len(cps))
	}
	latest, err := l.LatestCheckpoint()
	if err != nil || latest.Epoch != 2 || latest.Count != 12 {
		t.Fatalf("latest %+v err %v", latest, err)
	}
	if latest.Count != uint64(l.Len()) {
		t.Fatal("latest checkpoint does not cover the ledger")
	}
	if err := latest.Validate(); err != nil {
		t.Fatal(err)
	}
	byEpoch, err := l.CheckpointByEpoch(1)
	if err != nil || byEpoch.Count != 8 {
		t.Fatalf("by epoch: %+v err %v", byEpoch, err)
	}
	if _, err := l.CheckpointByEpoch(9); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("got %v", err)
	}
	byCount, err := l.CheckpointByCount(8)
	if err != nil || byCount.Epoch != 1 {
		t.Fatalf("by count: %+v err %v", byCount, err)
	}
	// Epochs must advance.
	if _, err := l.SealEpoch(2); !errors.Is(err, ErrCheckpointOrder) {
		t.Fatalf("got %v", err)
	}
	// Digests are distinct and deterministic.
	if cps[0].Digest() == cps[1].Digest() {
		t.Fatal("checkpoint digests collide")
	}
	if cps[2].Digest() != latest.Digest() {
		t.Fatal("digest not deterministic")
	}
}

func TestInclusionProofRoundTrip(t *testing.T) {
	l := New()
	publishN(t, l, 16)
	cp, err := l.LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	entries := l.Entries()
	for i := range entries {
		p, err := l.ProveInclusion(uint64(i), cp)
		if err != nil {
			t.Fatalf("prove %d: %v", i, err)
		}
		if err := VerifyInclusion(cp, entries[i], p); err != nil {
			t.Fatalf("verify %d: %v", i, err)
		}
	}
	// Proofs against an older checkpoint also verify for covered entries.
	old, err := l.CheckpointByEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.ProveInclusion(2, old)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyInclusion(old, entries[2], p); err != nil {
		t.Fatal(err)
	}
}

// TestInclusionMatchesTree: with a checkpoint sealed at every count
// 1..300, the proof of every entry under every checkpoint that covers
// it is the one merkle.BuildHashes over that prefix gives, byte for
// byte, and it verifies.
func TestInclusionMatchesTree(t *testing.T) {
	l := New()
	var leaves []merkle.Hash
	for e := 0; e < 300; e++ {
		c, err := l.Publish(uint32(e%7), uint64(e), h(byte(e)))
		if err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, EntryHash(c))
		if _, err := l.SealEpoch(uint64(e)); err != nil {
			t.Fatal(err)
		}
	}
	entries := l.Entries()
	for _, cp := range l.Checkpoints() {
		tree := merkle.BuildHashes(leaves[:cp.Count])
		for i := range cp.Count {
			got, err := l.ProveInclusion(i, cp)
			if err != nil {
				t.Fatalf("count %d, entry %d: %v", cp.Count, i, err)
			}
			want, err := tree.Prove(int(i))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("count %d, entry %d: proof %v, tree's %v", cp.Count, i, got, want)
			}
			if err := VerifyInclusion(cp, entries[i], got); err != nil {
				t.Fatalf("count %d, entry %d: %v", cp.Count, i, err)
			}
		}
		tree.Release()
	}
}

// TestInclusionAdversarial covers the attack surface: tampered entry
// fields, a stale checkpoint that does not cover the entry, a proof
// transplanted to the wrong index, and a forged checkpoint frontier.
func TestInclusionAdversarial(t *testing.T) {
	l := New()
	publishN(t, l, 16)
	cp, _ := l.LatestCheckpoint()
	old, _ := l.CheckpointByEpoch(0) // covers 4 entries
	entries := l.Entries()
	p5, err := l.ProveInclusion(5, cp)
	if err != nil {
		t.Fatal(err)
	}

	tamper := func(name string, mut func(*Commitment)) {
		c := entries[5]
		mut(&c)
		if err := VerifyInclusion(cp, c, p5); err == nil {
			t.Fatalf("%s: tampered entry verified", name)
		}
	}
	tamper("hash", func(c *Commitment) { c.Hash[0] ^= 1 })
	tamper("router", func(c *Commitment) { c.Router++ })
	tamper("epoch", func(c *Commitment) { c.Epoch += 7 })

	// Stale checkpoint: entry 5 is beyond old's coverage, both when
	// proving and when verifying.
	if _, err := l.ProveInclusion(5, old); !errors.Is(err, ErrStaleCheckpoint) {
		t.Fatalf("prove against stale checkpoint: %v", err)
	}
	if err := VerifyInclusion(old, entries[5], p5); !errors.Is(err, ErrStaleCheckpoint) {
		t.Fatalf("verify against stale checkpoint: %v", err)
	}

	// Wrong index: a valid proof for entry 5 must not authenticate the
	// entry claiming index 6 (or the proof re-labelled).
	if err := VerifyInclusion(cp, entries[6], p5); err == nil {
		t.Fatal("proof transplanted to wrong entry verified")
	}
	relabel := p5
	relabel.Index = 6
	if err := VerifyInclusion(cp, entries[6], relabel); err == nil {
		t.Fatal("re-labelled proof verified")
	}

	// Forged checkpoint: the server refuses to prove against a
	// frontier it never sealed, and an honest proof does not verify
	// under it.
	forged := forgeFrontier(cp)
	if _, err := l.ProveInclusion(5, forged); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("forged checkpoint: %v", err)
	}
	if err := VerifyInclusion(forged, entries[5], p5); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("proof verified under a forged checkpoint: %v", err)
	}
}

// forgeFrontier returns cp with its top frontier slot altered, a
// well-formed checkpoint no honest ledger sealed.
func forgeFrontier(cp Checkpoint) Checkpoint {
	cp.Frontier = append([]merkle.Hash(nil), cp.Frontier...)
	cp.Frontier[len(cp.Frontier)-1][0] ^= 1
	return cp
}

func TestVerifyExtension(t *testing.T) {
	l := New()
	publishN(t, l, 20) // 5 epochs
	from, _ := l.CheckpointByEpoch(1)
	to, _ := l.LatestCheckpoint()
	entries := l.Entries()
	delta := entries[from.Count:to.Count]

	if err := VerifyExtension(from, delta, to); err != nil {
		t.Fatal(err)
	}
	// No-op refresh.
	if err := VerifyExtension(to, nil, to); err != nil {
		t.Fatal(err)
	}
	// Also valid from the empty prefix, whose count-0 checkpoint a
	// fresh ledger seals.
	cp0, err := New().SealEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyExtension(cp0, entries[:from.Count], from); err != nil {
		t.Fatalf("extension from the empty prefix: %v", err)
	}

	bad := func(name string, from Checkpoint, delta []Commitment, to Checkpoint) {
		t.Helper()
		if err := VerifyExtension(from, delta, to); !errors.Is(err, ErrBadExtension) && !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// Tampered entry in the delta changes its leaf.
	mut := make([]Commitment, len(delta))
	copy(mut, delta)
	mut[1].Hash[0] ^= 1
	bad("tampered delta", from, mut, to)
	// Dropped entry.
	bad("dropped entry", from, delta[1:], to)
	// Regressing checkpoint.
	bad("regression", to, nil, from)
	// Forged frontier: well formed, but not what the delta folds to.
	bad("forged frontier", from, delta, forgeFrontier(to))
	// A forged pin cannot be extended either.
	bad("forged pin", forgeFrontier(from), delta, to)
	// Epoch must advance when entries were added.
	forged := to
	forged.Epoch = from.Epoch
	bad("stuck epoch", from, delta, forged)
}

// TestCheckpointRace exercises the checkpoint path under the race
// detector: concurrent publishers (distinct router/epoch pairs),
// sealers, and proof servers.
func TestCheckpointRace(t *testing.T) {
	l := New()
	publishN(t, l, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Routers 100+ so no collision with publishN or peers.
				if _, err := l.Publish(uint32(100+w), uint64(i), h(byte(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for e := uint64(100); e < 120; e++ {
			if _, err := l.SealEpoch(e); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			cp, err := l.LatestCheckpoint()
			if err != nil {
				t.Error(err)
				return
			}
			idx := uint64(i) % cp.Count
			p, err := l.ProveInclusion(idx, cp)
			if err != nil {
				t.Error(err)
				return
			}
			if err := VerifyInclusion(cp, l.Entries()[idx], p); err != nil {
				t.Errorf("proof %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	// Every sealed checkpoint remains internally consistent.
	for i, cp := range l.Checkpoints() {
		if err := cp.Validate(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
}

// TestCheckpointJSONRoundTrip: checkpoints cross the API as JSON; the
// digest must survive.
func TestCheckpointJSONRoundTrip(t *testing.T) {
	l := New()
	publishN(t, l, 12)
	cp, _ := l.LatestCheckpoint()
	buf, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var got Checkpoint
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Digest() != cp.Digest() {
		t.Fatal("digest changed across JSON")
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}
