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
				j, err := c.enqueue(jobWhole, 0, [32]byte{}, req, nil)
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
