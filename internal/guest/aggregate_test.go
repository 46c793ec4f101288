package guest

import (
	"encoding/hex"
	"errors"
	"slices"
	"sort"
	"testing"

	"zkflow/internal/clog"
	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/trafficgen"
	"zkflow/internal/vmtree"
	"zkflow/internal/zkvm"
)

// commitOf computes a batch's commitment in guest digest form.
func commitOf(recs []netflow.Record) vmtree.Digest {
	return vmtree.FromBytes(ledger.CommitRecords(recs))
}

// genBatches produces deterministic per-router batches.
func genBatches(seed int64, routers, perRouter int) []RouterBatch {
	gens := trafficgen.PerRouter(trafficgen.Config{Seed: seed, NumFlows: 32, Routers: routers, LossRate: 0.02})
	out := make([]RouterBatch, routers)
	for i, g := range gens {
		recs := g.Batch(uint32(i), 0, perRouter)
		out[i] = RouterBatch{ID: uint32(i), Commitment: commitOf(recs), Records: recs}
	}
	return out
}

// runAgg executes the aggregation guest and returns the execution.
func runAgg(t *testing.T, in *AggInput) (*zkvm.Execution, error) {
	t.Helper()
	return zkvm.Execute(AggregationProgram(), in.Words(), zkvm.ExecOptions{})
}

func prevRootOf(entries []clog.Entry) vmtree.Digest {
	return vmtree.Root(EntryWordsOf(entries))
}

// aggregationImage is the full image ID of AggregationProgram(). Every
// receipt the chain holds binds it, and verifiers accept no other image,
// so changing this constant is retiring the old guest: DESIGN.md §8's
// rule ("Retiring this format") says how long the old image must still
// be read.
const aggregationImage = "b8744ad978ac8c221780ff51de79c15b2b59c2f56a61319c8420661e22d26e57"

// TestAggregationImageIsPinned fails on any change to the aggregation
// guest's encoding.
func TestAggregationImageIsPinned(t *testing.T) {
	id := AggregationProgram().ID()
	if got := hex.EncodeToString(id[:]); got != aggregationImage {
		t.Fatalf("aggregation image %s, pinned %s", got, aggregationImage)
	}
}

func TestAggregationGenesisRound(t *testing.T) {
	batches := genBatches(1, 4, 10)
	in := &AggInput{Routers: batches} // zero prev root, empty prev
	ex, err := runAgg(t, in)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if ex.ExitCode != 0 {
		t.Fatalf("guest aborted with code %d", ex.ExitCode)
	}
	j, err := ParseAggJournal(ex.Journal)
	if err != nil {
		t.Fatalf("parse journal: %v", err)
	}
	// Differential check against the host-side reference.
	var all [][]netflow.Record
	for _, b := range batches {
		all = append(all, b.Records)
	}
	want := ReferenceAggregate(nil, all...)
	if int(j.NewCount) != len(want) {
		t.Fatalf("guest produced %d entries, reference %d", j.NewCount, len(want))
	}
	wantRoot := prevRootOf(want)
	if j.NewRoot != wantRoot {
		t.Fatalf("guest root %v, reference %v", j.NewRoot.Bytes(), wantRoot.Bytes())
	}
	// Leaf digests must match the reference entries in order.
	wantDigs := vmtree.LeafDigests(EntryWordsOf(want))
	for i := range wantDigs {
		if j.LeafDigests[i] != wantDigs[i] {
			t.Fatalf("leaf digest %d mismatch", i)
		}
	}
	if j.NumRecords != 40 || j.NumRouters != 4 || j.PrevCount != 0 {
		t.Fatalf("journal header: %+v", j)
	}
}

func TestAggregationSecondRound(t *testing.T) {
	round1 := genBatches(2, 4, 8)
	var all1 [][]netflow.Record
	for _, b := range round1 {
		all1 = append(all1, b.Records)
	}
	prev := ReferenceAggregate(nil, all1...)

	round2 := genBatches(3, 4, 8)
	in := &AggInput{
		PrevRoot:    prevRootOf(prev),
		Routers:     round2,
		PrevEntries: prev,
	}
	ex, err := runAgg(t, in)
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != 0 {
		t.Fatalf("abort code %d", ex.ExitCode)
	}
	j, err := ParseAggJournal(ex.Journal)
	if err != nil {
		t.Fatal(err)
	}
	var all2 [][]netflow.Record
	for _, b := range round2 {
		all2 = append(all2, b.Records)
	}
	want := ReferenceAggregate(prev, all2...)
	if int(j.NewCount) != len(want) {
		t.Fatalf("guest %d entries, reference %d", j.NewCount, len(want))
	}
	if j.NewRoot != prevRootOf(want) {
		t.Fatal("second-round root mismatch")
	}
	if j.PrevRoot != in.PrevRoot {
		t.Fatal("journaled prev root differs from input")
	}
}

func TestAggregationAbortsOnTamperedRecord(t *testing.T) {
	batches := genBatches(4, 2, 6)
	// Tamper AFTER commitment: flip a byte-equivalent in one record.
	batches[1].Records[3].Packets ^= 1
	in := &AggInput{Routers: batches}
	ex, err := runAgg(t, in)
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != AbortCommitMismatch {
		t.Fatalf("exit %d, want AbortCommitMismatch", ex.ExitCode)
	}
	// And proving refuses.
	if _, err := zkvm.Prove(AggregationProgram(), in.Words(), zkvm.ProveOptions{Checks: 2}); err == nil {
		t.Fatal("tampered input produced a receipt")
	} else {
		var abort *zkvm.GuestAbortError
		if !errors.As(err, &abort) {
			t.Fatalf("want GuestAbortError, got %v", err)
		}
	}
}

func TestAggregationAbortsOnWrongCommitment(t *testing.T) {
	batches := genBatches(5, 2, 6)
	batches[0].Commitment[0] ^= 1
	ex, err := runAgg(t, &AggInput{Routers: batches})
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != AbortCommitMismatch {
		t.Fatalf("exit %d", ex.ExitCode)
	}
}

func TestAggregationAbortsOnTamperedPrevEntry(t *testing.T) {
	round1 := genBatches(6, 2, 8)
	var all [][]netflow.Record
	for _, b := range round1 {
		all = append(all, b.Records)
	}
	prev := ReferenceAggregate(nil, all...)
	root := prevRootOf(prev)
	prev[2].Bytes += 1000 // retroactive modification of the aggregate
	ex, err := runAgg(t, &AggInput{PrevRoot: root, Routers: genBatches(7, 2, 4), PrevEntries: prev})
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != AbortPrevRootMismatch {
		t.Fatalf("exit %d, want AbortPrevRootMismatch", ex.ExitCode)
	}
}

func TestAggregationAbortsOnUnsortedPrev(t *testing.T) {
	round1 := genBatches(8, 2, 8)
	var all [][]netflow.Record
	for _, b := range round1 {
		all = append(all, b.Records)
	}
	prev := ReferenceAggregate(nil, all...)
	if len(prev) < 2 {
		t.Skip("need at least two entries")
	}
	prev[0], prev[1] = prev[1], prev[0]
	ex, err := runAgg(t, &AggInput{PrevRoot: prevRootOf(prev), Routers: genBatches(9, 2, 4), PrevEntries: prev})
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != AbortPrevUnsorted {
		t.Fatalf("exit %d, want AbortPrevUnsorted", ex.ExitCode)
	}
}

func TestAggregationEmptyRound(t *testing.T) {
	// No routers, no records, empty prev: produces an empty CLog.
	ex, err := runAgg(t, &AggInput{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != 0 {
		t.Fatalf("exit %d", ex.ExitCode)
	}
	j, err := ParseAggJournal(ex.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if j.NewCount != 0 || j.NewRoot != vmtree.Zero {
		t.Fatalf("empty round journal: %+v", j)
	}
}

func TestAggregationSingleRecord(t *testing.T) {
	g := trafficgen.New(trafficgen.Config{Seed: 10, NumFlows: 4})
	recs := g.Batch(0, 0, 1)
	in := &AggInput{Routers: []RouterBatch{{ID: 0, Commitment: commitOf(recs), Records: recs}}}
	ex, err := runAgg(t, in)
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != 0 {
		t.Fatalf("exit %d", ex.ExitCode)
	}
	j, _ := ParseAggJournal(ex.Journal)
	want := ReferenceAggregate(nil, recs)
	if j.NewCount != 1 || j.NewRoot != prevRootOf(want) {
		t.Fatalf("single-record journal: %+v", j)
	}
}

func TestAggregationChainsJournalHash(t *testing.T) {
	var chain vmtree.Digest
	for i := range chain {
		chain[i] = uint32(i + 101)
	}
	batches := genBatches(11, 1, 3)
	ex, err := runAgg(t, &AggInput{PrevJournalHash: chain, Routers: batches})
	if err != nil {
		t.Fatal(err)
	}
	j, err := ParseAggJournal(ex.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if j.PrevJournalHash != chain {
		t.Fatal("chained journal hash not preserved")
	}
}

func TestAggregationDuplicateKeysAcrossRouters(t *testing.T) {
	// Both routers observe the same flow; counters must sum.
	rec := netflow.Record{
		Key:     netflow.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6},
		Packets: 10, Bytes: 100, Dropped: 1, HopCount: 2,
		RTTMicros: 500, JitterMicros: 50, StartUnix: 1, EndUnix: 2,
	}
	r2 := rec
	r2.RouterID = 1
	r2.RTTMicros = 900
	b := []RouterBatch{
		{ID: 0, Commitment: commitOf([]netflow.Record{rec}), Records: []netflow.Record{rec}},
		{ID: 1, Commitment: commitOf([]netflow.Record{r2}), Records: []netflow.Record{r2}},
	}
	ex, err := runAgg(t, &AggInput{Routers: b})
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != 0 {
		t.Fatalf("exit %d", ex.ExitCode)
	}
	j, _ := ParseAggJournal(ex.Journal)
	if j.NewCount != 1 {
		t.Fatalf("expected 1 merged entry, got %d", j.NewCount)
	}
	want := ReferenceAggregate(nil, []netflow.Record{rec}, []netflow.Record{r2})
	if j.NewRoot != prevRootOf(want) {
		t.Fatal("merged entry root mismatch")
	}
	if want[0].RTTMax != 900 || want[0].RTTSum != 1400 || want[0].Count != 2 {
		t.Fatalf("reference policy wrong: %+v", want[0])
	}
}

func TestAggregationProveVerify(t *testing.T) {
	batches := genBatches(12, 2, 5)
	in := &AggInput{Routers: batches}
	prog := AggregationProgram()
	r, err := zkvm.Prove(prog, in.Words(), zkvm.ProveOptions{Checks: 8})
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	if err := zkvm.Verify(prog, r, zkvm.VerifyOptions{}); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if _, err := ParseAggJournal(r.JournalWords()); err != nil {
		t.Fatal(err)
	}
}

func TestParseAggJournalRejectsGarbage(t *testing.T) {
	if _, err := ParseAggJournal(nil); err == nil {
		t.Fatal("empty journal accepted")
	}
	if _, err := ParseAggJournal(make([]uint32, 5)); err == nil {
		t.Fatal("truncated journal accepted")
	}
	// A huge claimed count must not cause an allocation explosion.
	words := make([]uint32, 30)
	words[18] = 0xffffffff // router count position
	if _, err := ParseAggJournal(words); err == nil {
		t.Fatal("implausible journal accepted")
	}
}

// TestReferenceAggregateMatchesCLog checks the host model against the
// CLog's definition, computed the slow way: one entry per distinct flow,
// in key order, each the fold of that flow's records in arrival order.
// Folding a round onto the previous round's entries is folding both.
func TestReferenceAggregateMatchesCLog(t *testing.T) {
	var all []netflow.Record
	var rounds [][]netflow.Record
	for _, b := range genBatches(13, 3, 10) {
		all = append(all, b.Records...)
		rounds = append(rounds, b.Records)
	}
	var want []clog.Entry
	for _, r := range all {
		if slices.ContainsFunc(want, func(e clog.Entry) bool { return e.Key == r.Key }) {
			continue
		}
		e := clog.Entry{Key: r.Key}
		for i := range all {
			if all[i].Key == r.Key {
				e.Merge(&all[i])
			}
		}
		want = append(want, e)
	}
	if len(want) == len(all) {
		t.Fatal("no flow has two records: nothing merges")
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Key.Less(want[j].Key) })
	if got := ReferenceAggregate(nil, rounds...); !slices.Equal(got, want) {
		t.Fatalf("one round: %d entries, want %d\n%+v\n%+v", len(got), len(want), got, want)
	}
	if got := ReferenceAggregate(ReferenceAggregate(nil, rounds[0]), rounds[1:]...); !slices.Equal(got, want) {
		t.Fatal("folding onto the previous round's entries differs from folding both at once")
	}
}
