package remote

import (
	"context"
	"fmt"
	"testing"
	"time"

	"zkflow/internal/obs"
	"zkflow/internal/zkvm"
)

// TestFarmDispatchOverhead measures the dispatch plane in isolation:
// workers prove nothing, they just hold each job for a fixed duration,
// so any wall clock beyond jobs×hold/workers is pure farm overhead —
// framing, queueing, socket writes of multi-megabyte requests, result
// collection. The bound is deliberately loose (CI boxes stall), but it
// still catches the failure mode that matters: dispatch serialising
// behind request fan-out, which shows up as overhead proportional to
// jobs×reqWords instead of a small constant.
func TestFarmDispatchOverhead(t *testing.T) {
	for _, tc := range []struct {
		workers  int
		jobs     int
		reqWords int
	}{
		{1, 8, 1 << 10},  // trivial requests, serial fleet
		{4, 12, 1 << 20}, // 4 MB requests fanned out across 4 workers
	} {
		t.Run(fmt.Sprintf("w%d_j%d_words%d", tc.workers, tc.jobs, tc.reqWords), func(t *testing.T) {
			const hold = 150 * time.Millisecond
			reg := obs.NewRegistry()
			c := NewCoordinator(FarmConfig{HeartbeatEvery: 500 * time.Millisecond, Metrics: reg})
			if err := c.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			prove := func(ctx context.Context, job *WorkerJob) ([]byte, error) {
				select {
				case <-time.After(hold):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return []byte{1}, nil
			}
			var cancels []context.CancelFunc
			for i := 0; i < tc.workers; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				cancels = append(cancels, cancel)
				go RunWorker(ctx, c.Addr(), WorkerConfig{Name: fmt.Sprintf("d%d", i), Capacity: 1, Prove: prove})
			}
			defer func() {
				for _, cf := range cancels {
					cf()
				}
			}()
			if err := c.WaitForWorkers(context.Background(), tc.workers); err != nil {
				t.Fatal(err)
			}
			req := EncodeRequest(&zkvm.Program{}, make([]uint32, tc.reqWords), zkvm.ProveOptions{})
			t0 := time.Now()
			jobs := make([]*farmJob, tc.jobs)
			for i := range jobs {
				j, err := c.enqueue(jobWhole, 0, [32]byte{}, req)
				if err != nil {
					t.Fatal(err)
				}
				jobs[i] = j
			}
			for _, j := range jobs {
				if _, err := c.await(context.Background(), j); err != nil {
					t.Fatal(err)
				}
			}
			wall := time.Since(t0)
			ideal := time.Duration((tc.jobs+tc.workers-1)/tc.workers) * hold
			overhead := wall - ideal
			snap := reg.Snapshot()
			t.Logf("wall=%v ideal=%v overhead=%v (requeued=%d dead=%d)",
				wall, ideal, overhead, snap.Counters["farm.jobs_requeued"], snap.Counters["farm.workers_dead"])
			if overhead > dispatchOverheadBound {
				t.Fatalf("dispatch overhead %v beyond the %v bound (wall %v, ideal %v)", overhead, dispatchOverheadBound, wall, ideal)
			}
			if got := snap.Counters["farm.results_duplicate"]; got != 0 {
				t.Fatalf("%d duplicate results in a churn-free run", got)
			}
		})
	}
}

// TestDispatchThroughputScoring pins the EWMA dispatch rules without
// networking: measured-fast workers outrank measured-slow ones even
// with equal free slots, unmeasured workers inherit the fleet mean,
// and with no samples at all the planner falls back to most-free-slots.
func TestDispatchThroughputScoring(t *testing.T) {
	c := NewCoordinator(FarmConfig{})
	reg := obs.NewRegistry()
	mk := func(id uint32, capacity int, rate float64) *farmWorker {
		w := &farmWorker{
			id: id, capacity: capacity, rate: rate,
			inflight: make(map[uint64]*farmJob),
			gRate:    reg.Gauge("test.rate"),
		}
		c.workers[id] = w
		return w
	}

	// No samples: most free slots wins, lowest ID breaks ties.
	a := mk(1, 2, 0)
	b := mk(2, 4, 0)
	if got := c.pickWorkerLocked(); got != b {
		t.Fatalf("no-sample fallback picked worker %d, want most-free-slots worker 2", got.id)
	}
	b.capacity = 2
	if got := c.pickWorkerLocked(); got != a {
		t.Fatalf("no-sample tie picked worker %d, want lowest ID 1", got.id)
	}

	// a measured 4x faster than b: a wins despite equal load.
	a.rate, b.rate = 4.0, 1.0
	if got := c.pickWorkerLocked(); got != a {
		t.Fatalf("throughput scoring picked worker %d, want fast worker 1", got.id)
	}
	// Load a up: 4/(3+1) = 1.0 ties b's 1/(0+1) = 1.0; lowest ID wins.
	a.inflight[1], a.inflight[2], a.inflight[3] = &farmJob{}, &farmJob{}, &farmJob{}
	a.capacity = 4
	if got := c.pickWorkerLocked(); got != a {
		t.Fatalf("score tie picked worker %d, want lowest ID 1", got.id)
	}
	// One more in-flight on a: b is now the sooner finisher.
	a.inflight[4] = &farmJob{}
	a.capacity = 5
	if got := c.pickWorkerLocked(); got != b {
		t.Fatalf("loaded-fast-worker pick was %d, want slow-but-idle worker 2", got.id)
	}

	// Unmeasured newcomer inherits the fleet mean: with the mean 2.5
	// and no load, its score 2.5 beats loaded a (0.8) and idle b (1.0).
	n := mk(3, 1, 0)
	if got := c.pickWorkerLocked(); got != n {
		t.Fatalf("newcomer pick was %d, want prior-scored worker 3", got.id)
	}

	// The enqueue planner uses the same scoring with planned counts.
	n.planned = 5 // 2.5/(5+1) < b's 1.0
	j, err := c.enqueue(jobWhole, 0, [32]byte{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.home != b.id {
		t.Fatalf("planner homed job to worker %d, want 2", j.home)
	}
	if b.planned != 1 {
		t.Fatalf("planned count %d, want 1", b.planned)
	}
}

// TestObserveRateEWMA pins the throughput estimator: first sample
// initialises, later samples blend at rateAlpha, samples are
// normalised by the worker's occupancy at completion (so a capacity-C
// worker is not under-credited by 1/C), and the gauge tracks in
// milli-units.
func TestObserveRateEWMA(t *testing.T) {
	reg := obs.NewRegistry()
	w := &farmWorker{gRate: reg.Gauge("w.rate_milli")}
	w.observeRate(500*time.Millisecond, 1) // 2.0 seg/s
	if w.rate != 2.0 {
		t.Fatalf("first sample rate %v, want 2.0", w.rate)
	}
	w.observeRate(250*time.Millisecond, 1) // sample 4.0
	want := rateAlpha*4.0 + (1-rateAlpha)*2.0
	if diff := w.rate - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("blended rate %v, want %v", w.rate, want)
	}
	if g := reg.Gauge("w.rate_milli").Value(); g != int64(w.rate*1000) {
		t.Fatalf("gauge %d, want %d", g, int64(w.rate*1000))
	}
	want = w.rate
	w.observeRate(0, 1) // degenerate sample ignored
	if w.rate != want {
		t.Fatalf("zero-elapsed sample changed rate to %v", w.rate)
	}

	// Occupancy credit: a job finishing in 500ms while 3 ran
	// concurrently evidences ~6 seg/s of worker throughput, not 2.
	w2 := &farmWorker{gRate: reg.Gauge("w2.rate_milli")}
	w2.observeRate(500*time.Millisecond, 3)
	if w2.rate != 6.0 {
		t.Fatalf("occupancy-3 sample rate %v, want 6.0", w2.rate)
	}
	// Degenerate occupancy clamps to 1 instead of zeroing the sample.
	w3 := &farmWorker{gRate: reg.Gauge("w3.rate_milli")}
	w3.observeRate(500*time.Millisecond, 0)
	if w3.rate != 2.0 {
		t.Fatalf("clamped-occupancy sample rate %v, want 2.0", w3.rate)
	}
}
