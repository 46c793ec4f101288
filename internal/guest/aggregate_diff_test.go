package guest

import (
	_ "embed"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"zkflow/internal/clog"
	"zkflow/internal/netflow"
	"zkflow/internal/zkvm"
)

// mWord is where the tape and the journal carry the declared record
// count: after two digests, the epoch and the router count.
const mWord = 18

// retiredAggregation is AggregationProgram().Encode() of the last
// commit before the guest's data movement was rewritten: a second,
// independently written guest for the same journal, kept as a test
// reference only. No verifier accepts its image.
//
//go:embed testdata/aggregation_pr15.img
var retiredAggregation []byte

var retiredProg = sync.OnceValue(func() *zkvm.Program {
	p, err := zkvm.DecodeProgram(retiredAggregation)
	if err != nil {
		panic(err)
	}
	return p
})

// referenceJournalOf is ReferenceJournal over the CLog
// ReferenceAggregate computes for in.
func referenceJournalOf(in *AggInput) []uint32 {
	var batches [][]netflow.Record
	for _, r := range in.Routers {
		batches = append(batches, r.Records)
	}
	return ReferenceJournal(in, ReferenceAggregate(in.PrevEntries, batches...))
}

// checkAggregation runs the guest over in, monolithic and cut every
// cut rows for each of cuts, and requires the reference journal each
// time — of the retired image as well.
func checkAggregation(t testing.TB, in *AggInput, cuts ...int) {
	t.Helper()
	want, words := referenceJournalOf(in), in.Words()
	ex, err := zkvm.Execute(AggregationProgram(), words, zkvm.ExecOptions{})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if ex.ExitCode != 0 {
		t.Fatalf("guest aborted with code %d", ex.ExitCode)
	}
	if !slices.Equal(ex.Journal, want) {
		t.Fatalf("journal differs from the reference (%d words, want %d)", len(ex.Journal), len(want))
	}
	// The retired image wants the permutation before the previous
	// entries, and must journal the same words from the same round.
	perm := len(words) - int(want[mWord])
	prev := perm - entryW*len(in.PrevEntries)
	old, err := zkvm.Execute(retiredProg(), slices.Concat(words[:prev], words[perm:], words[prev:perm]), zkvm.ExecOptions{})
	if err != nil || !slices.Equal(old.Journal, want) {
		t.Fatalf("retired image: %v, journal of %d words differs from the current image's", err, len(old.Journal))
	}
	for _, cut := range cuts {
		c, err := zkvm.Prove(AggregationProgram(), words, zkvm.ProveOptions{Checks: 1, SegmentCycles: cut})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !slices.Equal(c.JournalWords(), want) {
			t.Fatalf("cut %d: journal of %d segments differs from the reference", cut, c.NumSegments())
		}
	}
}

// key i of the test universe; keys order as their numbers do, and the
// universe exercises every key word as the first that differs.
func testKey(i int) netflow.FlowKey {
	return netflow.FlowKey{SrcIP: uint32(i / 8), DstIP: uint32(i / 4 % 2), SrcPort: uint16(i / 2 % 2), Proto: uint8(i % 2)}
}

// randRecord draws a record of key k. One field in four is near the top
// of its range, so sums wrap and maxima are hit.
func randRecord(rng *rand.Rand, k int) netflow.Record {
	f := func() uint32 {
		if rng.Intn(4) == 0 {
			return ^uint32(0) - uint32(rng.Intn(3))
		}
		return uint32(rng.Intn(1000))
	}
	return netflow.Record{Key: testKey(k), Packets: f(), Bytes: f(), Dropped: f(), HopCount: f(),
		RTTMicros: f(), JitterMicros: f(), StartUnix: f(), EndUnix: f(), RouterID: f()}
}

// shapedInput builds a round: a previous CLog holding prevKeys, and
// len(routers) routers, router r's records drawing their keys from
// routers[r] in order.
func shapedInput(rng *rand.Rand, prevKeys []int, routers ...[]int) *AggInput {
	var seed []netflow.Record
	for _, k := range prevKeys {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			seed = append(seed, randRecord(rng, k))
		}
	}
	in := &AggInput{Epoch: rng.Uint32(), PrevEntries: ReferenceAggregate(nil, seed)}
	in.PrevRoot = prevRootOf(in.PrevEntries)
	for i := range in.PrevJournalHash {
		in.PrevJournalHash[i] = rng.Uint32()
	}
	for r, keys := range routers {
		recs := make([]netflow.Record, len(keys))
		for i, k := range keys {
			recs[i] = randRecord(rng, k)
		}
		in.Routers = append(in.Routers, RouterBatch{ID: uint32(r + 1), Commitment: commitOf(recs), Records: recs})
	}
	return in
}

// randomInput draws the shape too: up to 12 previous keys and 4 routers
// of up to 9 records over a universe of 2..17 keys.
func randomInput(rng *rand.Rand) *AggInput {
	universe := 2 + rng.Intn(16)
	prevKeys := rng.Perm(universe)[:rng.Intn(min(universe, 12)+1)]
	routers := make([][]int, rng.Intn(5))
	for r := range routers {
		routers[r] = make([]int, rng.Intn(10))
		for i := range routers[r] {
			routers[r][i] = rng.Intn(universe)
		}
	}
	return shapedInput(rng, prevKeys, routers...)
}

// TestAggregationMatchesReference is the differential property over
// the shapes the merge tells apart, then over seeded random rounds.
func TestAggregationMatchesReference(t *testing.T) {
	shapes := []struct {
		name    string
		prev    []int
		routers [][]int
	}{
		{"empty prev", nil, [][]int{{3, 1, 2}, {2, 5}}},
		{"empty round", []int{1, 4, 6}, nil},
		{"routers without records", []int{2}, [][]int{{}, {}}},
		{"zero-record router", []int{2, 3}, [][]int{{3, 7}, {}, {1}}},
		{"all-new keys", []int{2, 4, 6}, [][]int{{1, 3}, {5, 7, 3}}},
		{"all-matching keys", []int{2, 4, 6}, [][]int{{6, 2}, {4, 4, 2}}},
		{"equal keys across routers", []int{5}, [][]int{{5, 5, 9}, {9, 5}, {5, 9, 9}}},
		{"prev count not a power of two", []int{1, 2, 3, 4, 5}, [][]int{{3}, {0, 6}}},
		{"one previous entry", []int{4}, [][]int{{4}}},
		{"records before every prev entry", []int{8, 9, 12}, [][]int{{1, 0}, {1}}},
		{"records after every prev entry", []int{0, 1, 2}, [][]int{{9, 8}, {9, 15}}},
		{"records between prev entries", []int{0, 4, 8, 12}, [][]int{{2, 6, 10, 14}, {6, 2}}},
	}
	rng := rand.New(rand.NewSource(16))
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			checkAggregation(t, shapedInput(rng, s.prev, s.routers...), 64, 211, 1024)
		})
	}
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := randomInput(rng)
		if seed%10 == 0 {
			checkAggregation(t, in, 64+rng.Intn(512))
		} else {
			checkAggregation(t, in)
		}
	}
}

// FuzzAggregationMatchesReference: every round the seed draws must
// journal what the reference computes, monolithic and cut.
func FuzzAggregationMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint16(64+100*seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, cut uint16) {
		checkAggregation(t, randomInput(rand.New(rand.NewSource(seed))), int(cut))
	})
}

// tapeWith returns in's tape after mutate has edited it. The tape ends
// with the sort permutation, one index per record, after the header
// words, the router batches and the previous entries.
func tapeWith(in *AggInput, mutate func(words, perm []uint32)) []uint32 {
	words := in.Words()
	records := 0
	for _, r := range in.Routers {
		records += len(r.Records)
	}
	mutate(words, words[len(words)-records:])
	return words
}

// TestAggregationAbortsOnBadHint: the permutation is the host's word,
// and the guest takes nothing on trust from it.
func TestAggregationAbortsOnBadHint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Records 0..5 have keys 4 2 2 9 | 2 7: the sorted order is 1 2 4 0 5 3.
	in := shapedInput(rng, []int{2, 7, 8}, []int{4, 2, 2, 9}, []int{2, 7})
	for _, tc := range []struct {
		name   string
		mutate func(words, perm []uint32)
		code   uint32
	}{
		{"honest", func(_, _ []uint32) {}, 0},
		{"index out of range", func(_, perm []uint32) { perm[5] = 6 }, AbortBadPermutation},
		{"index far out of range", func(_, perm []uint32) { perm[0] = 1<<32 - 13 }, AbortBadPermutation},
		{"index repeated within a key", func(_, perm []uint32) { perm[1] = 1 }, AbortBadPermutation},
		{"index repeated across keys", func(_, perm []uint32) { perm[4] = 0 }, AbortBadPermutation},
		{"bijection, keys out of order", func(_, perm []uint32) { perm[3], perm[4] = perm[4], perm[3] }, AbortBadPermutation},
		{"bijection, last key first", func(_, perm []uint32) { copy(perm, []uint32{3, 1, 2, 4, 0, 5}) }, AbortBadPermutation},
		{"bijection, equal keys out of index order", func(_, perm []uint32) { perm[0], perm[1] = perm[1], perm[0] }, AbortBadPermutation},
		{"declared total above the batches", func(words, _ []uint32) { words[mWord]++ }, AbortCountMismatch},
		{"declared total below the batches", func(words, _ []uint32) { words[mWord]-- }, AbortCountMismatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ex, err := zkvm.Execute(AggregationProgram(), tapeWith(in, tc.mutate), zkvm.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if ex.ExitCode != tc.code {
				t.Fatalf("exit %d, want %d", ex.ExitCode, tc.code)
			}
		})
	}
	// A tape that ends before the permutation does cannot be proved at all.
	if _, err := zkvm.Execute(AggregationProgram(), tapeWith(in, func(_, _ []uint32) {})[:len(in.Words())-1], zkvm.ExecOptions{}); err == nil {
		t.Fatal("short permutation executed to completion")
	}
}

// TestAggregationMergePolicy pins the guest to clog.Entry.Merge on one
// hand-made entry: sums, both maxima from either side, and the count.
func TestAggregationMergePolicy(t *testing.T) {
	k := testKey(3)
	prev := []clog.Entry{{Key: k, Packets: 1, Bytes: 2, Dropped: 3, HopCount: 4, RTTSum: 50, RTTMax: 40, JitterSum: 9, JitterMax: 8, Count: 2}}
	recs := []netflow.Record{
		{Key: k, Packets: 10, Bytes: 20, Dropped: 30, HopCount: 40, RTTMicros: 30, JitterMicros: 9},
		{Key: k, Packets: 100, Bytes: 200, Dropped: 300, HopCount: 400, RTTMicros: 45, JitterMicros: 2},
	}
	want := clog.Entry{Key: k, Packets: 111, Bytes: 222, Dropped: 333, HopCount: 444, RTTSum: 125, RTTMax: 45, JitterSum: 20, JitterMax: 9, Count: 4}
	if got := ReferenceAggregate(prev, recs); len(got) != 1 || got[0] != want {
		t.Fatalf("reference policy: %+v", got)
	}
	checkAggregation(t, &AggInput{PrevRoot: prevRootOf(prev), PrevEntries: prev,
		Routers: []RouterBatch{{ID: 9, Commitment: commitOf(recs), Records: recs}}})
}
