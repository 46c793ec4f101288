package ledger

import (
	"errors"
	"sync"
	"testing"

	"zkflow/internal/merkle"
	"zkflow/internal/netflow"
	"zkflow/internal/vmtree"
)

func h(b byte) merkle.Hash {
	var out merkle.Hash
	out[0] = b
	return out
}

func TestPublishLookup(t *testing.T) {
	l := New()
	c, err := l.Publish(1, 10, h(7))
	if err != nil {
		t.Fatal(err)
	}
	if c.Index != 0 {
		t.Fatalf("index %d", c.Index)
	}
	got, err := l.Lookup(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatal("lookup mismatch")
	}
}

func TestDuplicateRejected(t *testing.T) {
	l := New()
	if _, err := l.Publish(1, 10, h(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Publish(1, 10, h(2)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("got %v", err)
	}
	// Same router, other epoch: fine. Other router, same epoch: fine.
	if _, err := l.Publish(1, 11, h(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Publish(2, 10, h(4)); err != nil {
		t.Fatal(err)
	}
}

func TestLookupMissing(t *testing.T) {
	l := New()
	if _, err := l.Lookup(9, 9); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

// TestFromEntriesRebuildsCheckpoints: a downloaded entry list rebuilds
// a ledger whose frontier is the publisher's, and an entry out of index
// order or a repeated (router, epoch) is refused.
func TestFromEntriesRebuildsCheckpoints(t *testing.T) {
	l := New()
	publishN(t, l, 20)
	got, err := FromEntries(l.Entries())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := l.LatestCheckpoint()
	cp, err := got.SealEpoch(want.Epoch)
	if err != nil || cp.Digest() != want.Digest() {
		t.Fatalf("rebuilt checkpoint %+v, want %+v (err %v)", cp, want, err)
	}

	swapped := l.Entries()
	swapped[2], swapped[3] = swapped[3], swapped[2]
	if _, err := FromEntries(swapped); !errors.Is(err, ErrOrder) {
		t.Fatalf("out-of-order entries accepted: %v", err)
	}
	dup := l.Entries()[:3]
	dup[2].Router, dup[2].Epoch = dup[1].Router, dup[1].Epoch
	if _, err := FromEntries(dup); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("repeated (router, epoch) accepted: %v", err)
	}
}

// extensionFixture returns a ledger of five sealed epochs and the
// entries between its epoch-1 checkpoint and its latest one.
func extensionFixture(t *testing.T) (from, to Checkpoint, delta []Commitment) {
	t.Helper()
	l := New()
	publishN(t, l, 20)
	from, _ = l.CheckpointByEpoch(1)
	to, _ = l.LatestCheckpoint()
	return from, to, l.Entries()[from.Count:to.Count]
}

// TestExtensionDetectsRewrite: rewriting any field of an entry under a
// checkpoint breaks the extension to it.
func TestExtensionDetectsRewrite(t *testing.T) {
	from, to, delta := extensionFixture(t)
	for name, mut := range map[string]func(*Commitment){
		"hash":   func(c *Commitment) { c.Hash[0] ^= 1 },
		"router": func(c *Commitment) { c.Router++ },
		"epoch":  func(c *Commitment) { c.Epoch += 7 },
	} {
		rewritten := append([]Commitment(nil), delta...)
		mut(&rewritten[2])
		if err := VerifyExtension(from, rewritten, to); !errors.Is(err, ErrBadExtension) {
			t.Fatalf("%s rewrite undetected: %v", name, err)
		}
	}
}

// TestExtensionDetectsDeletion: dropping an entry, or swapping two,
// breaks the extension even when the indices are renumbered to match.
func TestExtensionDetectsDeletion(t *testing.T) {
	from, to, delta := extensionFixture(t)
	cut := append(append([]Commitment(nil), delta[:2]...), delta[3:]...)
	if err := VerifyExtension(from, cut, to); !errors.Is(err, ErrBadExtension) {
		t.Fatalf("deletion undetected: %v", err)
	}
	swapped := append([]Commitment(nil), delta...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	swapped[0].Index, swapped[1].Index = swapped[1].Index, swapped[0].Index
	if err := VerifyExtension(from, swapped, to); !errors.Is(err, ErrBadExtension) {
		t.Fatalf("reordering undetected: %v", err)
	}
}

func TestLenAdvances(t *testing.T) {
	l := New()
	if l.Len() != 0 {
		t.Fatal("nonzero initial length")
	}
	if _, err := l.Publish(0, 0, h(1)); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 {
		t.Fatal("length did not advance")
	}
}

func TestCommitRecordsBindsContent(t *testing.T) {
	recs := []netflow.Record{{Key: netflow.FlowKey{SrcIP: 1}, Packets: 10}}
	a := CommitRecords(recs)
	recs[0].Packets = 11
	if a == CommitRecords(recs) {
		t.Fatal("commitment insensitive to record change")
	}
	if CommitRecords(nil) == a {
		t.Fatal("empty batch collides")
	}
	// The commitment is the digest the guest's SysHash takes of the
	// batch's words.
	recs = append(recs, netflow.Record{Key: netflow.FlowKey{SrcIP: 2, DstPort: 443, Proto: 6}, Bytes: 1 << 31, RouterID: 3})
	for n := 0; n <= len(recs); n++ {
		if CommitRecords(recs[:n]) != vmtree.HashWords(netflow.BatchWords(recs[:n])).Bytes() {
			t.Fatalf("%d records: commitment is not the hash of the batch words", n)
		}
	}
}

func TestConcurrentPublish(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for r := uint32(0); r < 8; r++ {
		wg.Add(1)
		go func(r uint32) {
			defer wg.Done()
			for e := uint64(0); e < 25; e++ {
				if _, err := l.Publish(r, e, h(byte(r))); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if _, err := FromEntries(l.Entries()); err != nil {
		t.Fatal(err)
	}
	if n := l.Len(); n != 200 {
		t.Fatalf("ledger length %d", n)
	}
}
