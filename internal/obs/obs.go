// Package obs is the stdlib-only observability layer: a metrics
// registry (counters, gauges, fixed-bucket histograms) with
// allocation-free atomic hot paths and a stable JSON snapshot, plus
// StageRecorder, which times the prover's stages into it (stage.go).
// The prover (zkvm stage timings), the epoch path (core.Prover),
// and the HTTP surface (internal/api) all report here; the registry
// snapshot is served as GET /api/v1/metrics.
//
// Design: metric handles are looked up (or created) once by name
// under a lock, then held by the caller — Add/Set/Observe on a handle
// touch only atomics, so instrumenting a hot loop costs a few
// uncontended atomic ops and zero allocations
// (TestIncrementsDoNotAllocate pins this).
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Allocation-free.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one. Allocation-free.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value (queue depths, in-flight
// work).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value. Allocation-free.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrement). Allocation-free.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets and tracks the
// running sum. Buckets are defined by their inclusive upper bounds;
// one implicit overflow bucket catches everything above the last
// bound. Observe is lock-free and allocation-free.
type Histogram struct {
	bounds []float64       // sorted inclusive upper bounds
	counts []atomic.Uint64 // len(bounds)+1, last = overflow
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
}

// DefaultLatencyBuckets spans 1 ms .. 60 s — wide enough for both
// HTTP round trips and multi-second proof seals.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
	0.5, 1, 2.5, 5, 10, 30, 60,
}

// newHistogram copies and sorts bounds; empty bounds means a single
// overflow bucket (count/sum only).
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample. Allocation-free.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations: the sum of every bucket,
// overflow included.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the running sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Registry is a named collection of metrics. Handles are get-or-create
// by name: the first caller defines the metric, later callers share
// it. All methods are safe for concurrent use.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later bounds are ignored — the first
// caller defines the buckets).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Bucket is one histogram bucket in a snapshot: the cumulative count
// of observations at or below the upper bound.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// HistogramSnapshot is the JSON form of a histogram. Buckets are
// cumulative (prometheus-style); the +Inf bucket is implied by Count.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every metric in a registry.
// encoding/json emits map keys sorted, so the serialization is stable
// for a given metric state.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current metric values. Safe to call while
// writers are hammering the hot paths; each individual value is an
// atomic read (the snapshot is not a cross-metric transaction).
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		// Count is the cumulative total read in the same pass as the
		// buckets, so no bucket ever exceeds it.
		hs := HistogramSnapshot{Sum: h.Sum()}
		for i, b := range h.bounds {
			hs.Count += h.counts[i].Load()
			hs.Buckets = append(hs.Buckets, Bucket{UpperBound: b, Count: hs.Count})
		}
		hs.Count += h.counts[len(h.bounds)].Load()
		if hs.Count > 0 {
			hs.Mean = hs.Sum / float64(hs.Count)
		}
		s.Histograms[name] = hs
	}
	return s
}
