package core

import (
	"sync"
	"testing"

	"zkflow/internal/obs"
	"zkflow/internal/zkvm"
)

// TestPipelineMetrics runs a metered batch while a reader snapshots
// concurrently (this is the epoch-path half of the -race lane), then
// checks the final ledger of counters and histograms.
func TestPipelineMetrics(t *testing.T) {
	const epochs = 3
	reg := obs.NewRegistry()
	p, _ := pipelineWithOpts(t, 5, epochs, 8, Options{Checks: 6, Metrics: reg})

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := reg.Snapshot()
			if r := s.Counters["core.agg_rounds"]; r > epochs {
				t.Errorf("agg_rounds %d above %d", r, epochs)
				return
			}
			if d := s.Counters["core.agg_discarded"]; d != 0 {
				t.Errorf("%d seals discarded in a batch that cannot fail", d)
				return
			}
		}
	}()
	if _, err := p.AggregateEpochs([]uint64{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	reader.Wait()

	s := reg.Snapshot()
	if got := s.Counters["core.agg_rounds"]; got != epochs {
		t.Fatalf("agg_rounds = %d, want %d", got, epochs)
	}
	if got := s.Counters["core.agg_failures"] + s.Counters["core.agg_discarded"]; got != 0 {
		t.Fatalf("failed+discarded = %d, want 0", got)
	}
	if h := s.Histograms["core.agg_seconds"]; h.Count != epochs {
		t.Fatalf("agg_seconds count = %d, want %d", h.Count, epochs)
	}
	// Per-stage prover breakdown flows through ProveOptions.Observer:
	// the guest executes inside the prover on every path, so every
	// sealed epoch reports execute too. (trace_encode is gone —
	// encoding is fused into merkle_commit/grand_product — and so is
	// mem_sort, with the sorted log seal format v6 dropped.)
	for _, stage := range []string{zkvm.StageExecute, zkvm.StageMerkleCommit, zkvm.StageGrandProduct, zkvm.StageSeal} {
		if h := s.Histograms["prover.stage."+stage+"_seconds"]; h.Count < epochs {
			t.Fatalf("prover stage %q observed %d times, want >= %d", stage, h.Count, epochs)
		}
	}
	// Tracer spans from the witness and seal stages.
	if h := s.Histograms["trace.witness_seconds"]; h.Count != epochs {
		t.Fatalf("witness spans = %d, want %d", h.Count, epochs)
	}
	if h := s.Histograms["trace.seal_seconds"]; h.Count != epochs {
		t.Fatalf("seal spans = %d, want %d", h.Count, epochs)
	}
}

// TestSerialAndQueryMetrics checks the one-epoch round and the query
// path report, and that a metered prover pre-registers the discard
// counter (so /api/v1/metrics shows the full schema from round one).
func TestSerialAndQueryMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	p, _ := pipelineWithOpts(t, 6, 1, 8, Options{Checks: 6, Metrics: reg})
	if _, err := p.AggregateEpoch(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Query(`SELECT COUNT(*) FROM clogs;`); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Query(`SELECT bogus`); err == nil {
		t.Fatal("malformed query accepted")
	}
	s := reg.Snapshot()
	if got := s.Counters["core.agg_rounds"]; got != 1 {
		t.Fatalf("agg_rounds = %d, want 1", got)
	}
	if got := s.Counters["core.query_total"]; got != 2 {
		t.Fatalf("query_total = %d, want 2", got)
	}
	if got := s.Counters["core.query_failures"]; got != 1 {
		t.Fatalf("query_failures = %d, want 1", got)
	}
	if h := s.Histograms["core.agg_seconds"]; h.Count != 1 {
		t.Fatalf("agg_seconds count = %d, want 1", h.Count)
	}
	// The full prover stage set shows up via the serial zkvm.Prove path
	// — except boundary_commit, which only segmented proofs report.
	for _, stage := range zkvm.Stages {
		if stage == zkvm.StageBoundaryCommit {
			continue
		}
		if h := s.Histograms["prover.stage."+stage+"_seconds"]; h.Count == 0 {
			t.Fatalf("prover stage %q never observed", stage)
		}
	}
	// The discard counter is pre-registered even though nothing was
	// discarded.
	if _, ok := s.Counters["core.agg_discarded"]; !ok {
		t.Fatal("core.agg_discarded not pre-registered")
	}
}

// TestSoundnessBitsMetric checks that a committed round reports its
// receipt's zkvm.Soundness headline as zkvm.soundness_bits.
func TestSoundnessBitsMetric(t *testing.T) {
	reg := obs.NewRegistry()
	p, _ := pipelineWithOpts(t, 7, 1, 8, Options{Checks: 6, Metrics: reg})
	res, err := p.AggregateEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	want := zkvm.Soundness(res.Receipt.(*zkvm.Receipt)).Headline.Bits
	h := reg.Snapshot().Histograms["zkvm.soundness_bits"]
	if h.Count != 1 || h.Sum != want || want <= 0 {
		t.Fatalf("zkvm.soundness_bits = %d rounds summing %v bits, want 1 round of %v", h.Count, h.Sum, want)
	}
}
