package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("reqs") != c {
		t.Fatal("second lookup returned a different counter handle")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 556.5 {
		t.Fatalf("sum = %v, want 556.5", s.Sum)
	}
	// Cumulative: <=1 holds {0.5, 1}, <=10 adds {5}, <=100 adds {50}.
	want := []uint64{2, 3, 4}
	for i, b := range s.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket le=%v count = %d, want %d", b.UpperBound, b.Count, want[i])
		}
	}
}

// TestSnapshotJSONStable checks the snapshot serializes to the same
// bytes twice — the property /api/v1/metrics clients rely on.
func TestSnapshotJSONStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("z").Set(-3)
	r.Histogram("h", DefaultLatencyBuckets).Observe(0.02)
	j1, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("snapshot JSON unstable:\n%s\n%s", j1, j2)
	}
	if !strings.Contains(string(j1), `"counters":{"a":1,"b":2}`) {
		t.Fatalf("counters not sorted/complete: %s", j1)
	}
}

// TestIncrementsDoNotAllocate pins the acceptance criterion: counter
// and gauge increments (and histogram observes) on a held handle are
// allocation-free.
func TestIncrementsDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot")
	g := r.Gauge("hot")
	h := r.Histogram("hot", DefaultLatencyBuckets)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(42) }); n != 0 {
		t.Fatalf("Gauge.Set allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(-1) }); n != 0 {
		t.Fatalf("Gauge.Add allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.017) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v per op", n)
	}
}

// TestConcurrentHammerAndSnapshot is the registry half of the -race
// lane: N writer goroutines hammer counters, gauges, and histograms
// while a reader snapshots continuously; after the writers join, the
// final snapshot must hold exactly the expected totals.
func TestConcurrentHammerAndSnapshot(t *testing.T) {
	const writers, perWriter = 8, 2000
	r := NewRegistry()
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.Snapshot()
			c := s.Counters["events"]
			if c < last {
				t.Error("counter went backwards in snapshot")
				return
			}
			last = c
			if h, ok := s.Histograms["work"]; ok {
				var cum uint64
				if len(h.Buckets) > 0 {
					cum = h.Buckets[len(h.Buckets)-1].Count
				}
				if cum > h.Count {
					t.Errorf("bucket total %d exceeds count %d", cum, h.Count)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Handles resolved once per goroutine — the hot-path pattern.
			c := r.Counter("events")
			g := r.Gauge("inflight")
			h := r.Histogram("work", []float64{0.5})
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 2)) // half below, half above 0.5
				g.Add(-1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snaps.Wait()

	s := r.Snapshot()
	if got := s.Counters["events"]; got != writers*perWriter {
		t.Fatalf("events = %d, want %d", got, writers*perWriter)
	}
	if got := s.Gauges["inflight"]; got != 0 {
		t.Fatalf("inflight = %d, want 0", got)
	}
	h := s.Histograms["work"]
	if h.Count != writers*perWriter {
		t.Fatalf("hist count = %d, want %d", h.Count, writers*perWriter)
	}
	if got := h.Buckets[0].Count; got != writers*perWriter/2 {
		t.Fatalf("le=0.5 bucket = %d, want %d", got, writers*perWriter/2)
	}
	if h.Sum != float64(writers*perWriter/2) {
		t.Fatalf("hist sum = %v, want %v", h.Sum, writers*perWriter/2)
	}
}

func TestDebugHandlerServesPprof(t *testing.T) {
	ts := httptest.NewServer(DebugHandler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
}
