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
				j, err := c.enqueue(0, [32]byte{}, req)
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

// TestDispatchThroughputScoring pins the one dispatch rule without
// networking: the worker with the most free slots takes the queue head,
// ties go to the lowest ID, and a fleet with every slot taken takes
// nothing. Throughput is not measured; a faster worker frees its slots
// sooner and so pulls more jobs.
func TestDispatchThroughputScoring(t *testing.T) {
	c := NewCoordinator(FarmConfig{})
	mk := func(id uint32, capacity int) *farmWorker {
		w := &farmWorker{id: id, capacity: capacity, inflight: make(map[uint64]*farmJob)}
		c.workers[id] = w
		return w
	}
	a := mk(1, 2)
	b := mk(2, 4)
	if got := c.pickWorkerLocked(); got != b {
		t.Fatalf("picked worker %d, want most-free-slots worker 2", got.id)
	}
	b.capacity = 2
	if got := c.pickWorkerLocked(); got != a {
		t.Fatalf("tie picked worker %d, want lowest ID 1", got.id)
	}
	a.inflight[1] = &farmJob{}
	if got := c.pickWorkerLocked(); got != b {
		t.Fatalf("picked loaded worker %d, want idle worker 2", got.id)
	}
	a.inflight[2], b.inflight[3], b.inflight[4] = &farmJob{}, &farmJob{}, &farmJob{}
	if got := c.pickWorkerLocked(); got != nil {
		t.Fatalf("picked worker %d with every slot taken", got.id)
	}
}
