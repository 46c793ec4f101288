package core

import (
	"testing"

	"zkflow/internal/guest"
)

// TestPipelineSharedProgramCache drives the concurrent seals of a
// batch — every seal binds its receipt to the shared aggregation
// guest's cached image commitment — and checks each committed receipt
// carries exactly that commitment and still verifies. The interesting
// assertion is under `make race`: concurrent ID() hits on the shared
// program must be clean.
func TestPipelineSharedProgramCache(t *testing.T) {
	p, v := pipelineWithOpts(t, 11, 4, 8, Options{Checks: 6})
	want := guest.AggregationProgram().ID()
	results, err := p.AggregateEpochs([]uint64{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Receipt.Image() != want {
			t.Fatalf("epoch %d receipt image %v, want cached commitment %v", r.Epoch, r.Receipt.Image(), want)
		}
		if _, err := v.VerifyAggregation(r.Receipt); err != nil {
			t.Fatalf("epoch %d: %v", r.Epoch, err)
		}
	}
}
