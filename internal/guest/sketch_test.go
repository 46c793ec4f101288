package guest

import (
	"math/rand"
	"testing"

	"zkflow/internal/netflow"
	"zkflow/internal/sketch"
	"zkflow/internal/zkvm"
)

const (
	skTestDepth = 4
	skTestWidth = 128
)

func skKey(i uint32) netflow.FlowKey {
	return netflow.FlowKey{SrcIP: i, DstIP: i * 3, SrcPort: uint16(i), DstPort: 80, Proto: 17}
}

// buildSketchBatches creates per-router sketches over random flows.
func buildSketchBatches(seed int64, routers int) ([]SketchBatch, *sketch.CMS) {
	rng := rand.New(rand.NewSource(seed))
	merged := sketch.MustNew(skTestDepth, skTestWidth)
	var batches []SketchBatch
	for r := 0; r < routers; r++ {
		s := sketch.MustNew(skTestDepth, skTestWidth)
		for i := 0; i < 200; i++ {
			k := skKey(uint32(rng.Intn(64)))
			c := uint32(1 + rng.Intn(9))
			s.Add(k, c)
			merged.Add(k, c)
		}
		batches = append(batches, SketchBatch{
			ID:         uint32(r),
			Commitment: CommitSketch(s),
			Sketch:     s,
		})
	}
	return batches, merged
}

func TestSketchMergeDifferential(t *testing.T) {
	batches, merged := buildSketchBatches(1, 3)
	queries := []netflow.FlowKey{skKey(1), skKey(5), skKey(63), skKey(999)}
	prog := SketchMergeProgram(skTestDepth, skTestWidth)
	ex, err := zkvm.Execute(prog, SketchInput(batches, queries), zkvm.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != 0 {
		t.Fatalf("exit %d", ex.ExitCode)
	}
	j, err := ParseSketchJournal(ex.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if j.MergedDigest != CommitSketch(merged) {
		t.Fatal("merged sketch digest differs from host-side merge")
	}
	for i, q := range queries {
		if j.Queries[i] != q {
			t.Fatalf("query %d key mismatch", i)
		}
		if j.Estimates[i] != merged.Estimate(q) {
			t.Fatalf("query %d: guest %d, host %d", i, j.Estimates[i], merged.Estimate(q))
		}
	}
}

func TestSketchMergeAbortsOnTamper(t *testing.T) {
	batches, _ := buildSketchBatches(2, 2)
	batches[1].Sketch.Counters[17]++ // modify after commitment
	prog := SketchMergeProgram(skTestDepth, skTestWidth)
	ex, err := zkvm.Execute(prog, SketchInput(batches, nil), zkvm.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != SketchAbortCommit {
		t.Fatalf("exit %d, want SketchAbortCommit", ex.ExitCode)
	}
}

func TestSketchMergeAbortsOnShape(t *testing.T) {
	// A committed sketch of the wrong dimensions must be rejected even
	// though its hash matches.
	s := sketch.MustNew(2, skTestWidth) // wrong depth
	batches := []SketchBatch{{ID: 0, Commitment: CommitSketch(s), Sketch: s}}
	prog := SketchMergeProgram(skTestDepth, skTestWidth)
	// The input tape length differs per dims; feed the words the guest
	// expects by padding the tape with the smaller sketch followed by
	// zeros (the guest reads the compiled-in word count).
	input := SketchInput(batches, nil)
	for len(input) < 1+8+2+skTestDepth*skTestWidth+1 {
		input = append(input, 0)
	}
	ex, err := zkvm.Execute(prog, input, zkvm.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode == 0 {
		t.Fatal("wrong-shape sketch accepted")
	}
}

func TestSketchMergeProveVerify(t *testing.T) {
	batches, merged := buildSketchBatches(3, 2)
	queries := []netflow.FlowKey{skKey(7)}
	prog := SketchMergeProgram(skTestDepth, skTestWidth)
	r, err := zkvm.Prove(prog, SketchInput(batches, queries), zkvm.ProveOptions{Checks: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := zkvm.Verify(prog, r, zkvm.VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	j, err := ParseSketchJournal(r.JournalWords())
	if err != nil {
		t.Fatal(err)
	}
	if j.Estimates[0] != merged.Estimate(skKey(7)) {
		t.Fatal("proven estimate differs from host merge")
	}
}

func TestSketchImageIDBindsDims(t *testing.T) {
	if SketchMergeProgram(4, 128).ID() == SketchMergeProgram(4, 256).ID() {
		t.Fatal("different dims share an image ID")
	}
}

func TestSketchEmpty(t *testing.T) {
	prog := SketchMergeProgram(skTestDepth, skTestWidth)
	ex, err := zkvm.Execute(prog, SketchInput(nil, nil), zkvm.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != 0 {
		t.Fatalf("exit %d", ex.ExitCode)
	}
	j, err := ParseSketchJournal(ex.Journal)
	if err != nil {
		t.Fatal(err)
	}
	empty := sketch.MustNew(skTestDepth, skTestWidth)
	if j.MergedDigest != CommitSketch(empty) {
		t.Fatal("empty merge digest wrong")
	}
}

func TestParseSketchJournalRejects(t *testing.T) {
	if _, err := ParseSketchJournal(nil); err == nil {
		t.Fatal("empty accepted")
	}
	words := make([]uint32, 4)
	words[0] = 0xffffffff
	if _, err := ParseSketchJournal(words); err == nil {
		t.Fatal("implausible accepted")
	}
}
