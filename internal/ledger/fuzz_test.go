package ledger

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"zkflow/internal/merkle"
)

// within fails t unless fn returns in two seconds: no check on a served
// checkpoint may hang the client running it.
func within(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("checkpoint check did not return within 2 s")
	}
}

// hugeCheckpoint has a count above 2^63, where the frontier's tree
// depth no longer fits a uint64 shift.
var hugeCheckpoint = Checkpoint{Epoch: 1, Count: 1<<63 + 1, Frontier: make([]merkle.Hash, 64)}

// TestHugeCountReturns: a root over a count above 2^63 used to double
// a wrapped shift forever, so a served checkpoint could hang Validate.
func TestHugeCountReturns(t *testing.T) {
	within(t, func() {
		if err := hugeCheckpoint.Validate(); err != nil {
			t.Error(err)
		}
		hugeCheckpoint.Root()
		VerifyExtension(hugeCheckpoint, nil, hugeCheckpoint)
		VerifyInclusion(hugeCheckpoint, Commitment{}, merkle.Proof{})
	})
}

// staleSlot returns cp with frontier slot l flipped. For a clear bit l
// of cp.Count the root ignores that slot, but the digest does not.
func staleSlot(cp Checkpoint, l int) Checkpoint {
	cp.Frontier = append([]merkle.Hash(nil), cp.Frontier...)
	cp.Frontier[l][0] ^= 1
	return cp
}

// TestValidateRefusesStaleSlot: a nonzero slot whose count bit is clear
// would give one ledger prefix a second digest, and a client pinned to
// it would later report the honest checkpoint as equivocation.
func TestValidateRefusesStaleSlot(t *testing.T) {
	l := New()
	cp0, _ := l.SealEpoch(0)
	publishN(t, l, 2)
	cp1, err := l.SealEpoch(1)
	if err != nil {
		t.Fatal(err)
	}
	flipped := staleSlot(cp1, 0) // count 2: slot 0 is clear
	if err := flipped.Validate(); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("stale slot validated: %v", err)
	}
	if err := VerifyExtension(cp0, l.Entries(), flipped); err == nil {
		t.Fatal("extension to a stale-slot checkpoint verified")
	}
}

// fuzzCase is what a light client reads from the operator in one sync:
// the served checkpoints, the entries between them, and an inclusion
// proof for the first of those entries.
type fuzzCase struct {
	From  Checkpoint   `json:"from"`
	To    Checkpoint   `json:"to"`
	Delta []Commitment `json:"delta"`
	Proof merkle.Proof `json:"proof"`
}

// FuzzCheckpoint: no served checkpoint, delta or proof makes the
// client-side checks hang or panic, and any `to` that VerifyExtension
// accepts is the checkpoint an honest ledger seals over from's prefix
// plus the delta — one prefix, one digest.
func FuzzCheckpoint(f *testing.F) {
	l := New()
	publishN(f, l, 12) // checkpoints at counts 4, 8, 12
	cps, entries := l.Checkpoints(), l.Entries()
	proof, err := l.ProveInclusion(4, cps[2])
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range []fuzzCase{
		{From: cps[0], To: cps[2], Delta: entries[4:12], Proof: proof},
		{From: cps[2], To: cps[0]},
		{From: hugeCheckpoint, To: hugeCheckpoint},
		{From: cps[0], To: staleSlot(cps[1], 0), Delta: entries[4:8]},
	} {
		seed, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var c fuzzCase
		if json.Unmarshal(data, &c) != nil {
			return
		}
		var extErr error
		within(t, func() {
			c.From.Validate()
			c.To.Validate()
			extErr = VerifyExtension(c.From, c.Delta, c.To)
			if len(c.Delta) > 0 {
				VerifyInclusion(c.To, c.Delta[0], c.Proof)
			}
		})
		if extErr != nil {
			return
		}
		fr := c.From.frontier()
		for _, e := range c.Delta {
			fr.Append(EntryHash(e))
		}
		honest := Checkpoint{Epoch: c.To.Epoch, Count: fr.Count(), Frontier: fr.Branch()}
		if c.To.Digest() != honest.Digest() {
			t.Fatalf("accepted checkpoint %+v, honest ledger seals %+v", c.To, honest)
		}
	})
}
