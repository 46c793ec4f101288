package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"zkflow/internal/core"
	"zkflow/internal/zkvm"
)

// hooks is the tracing state behind the two wrappers a traced rig
// installs: the core.Options.Prove wrapper around zkvm.ProveAny and
// the http.Handler wrapper around the API server. The wrappers record
// only while on is set, so traced and untraced operations can
// alternate in one run; an untraced rig installs neither.
type hooks struct {
	tr     *tracer
	on     atomic.Bool
	op     atomic.Int64 // operation (epoch or query) in flight
	parent atomic.Int64 // span the next proof / served request hangs under

	requests atomic.Int64 // requests the server wrapper saw
	bytes    atomic.Int64 // response bytes it wrote

	// What the prove wrapper saw of the last traced proof. A query is
	// proved on a server goroutine, hence the lock.
	mu   sync.Mutex
	last proof
}

// proof is one traced proof: the guest input, the wall time of
// zkvm.ProveAny and the summed stage timings.
type proof struct {
	input  []uint32
	wall   time.Duration
	stages map[string]time.Duration
}

func (h *hooks) lastProof() proof {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last
}

// tracer returns the span recorder, nil (which records nothing) on
// nil hooks: an untraced operation runs the same code with h == nil.
func (h *hooks) tracer() *tracer {
	if h == nil {
		return nil
	}
	return h.tr
}

// under makes span id the parent of the next proof or served request.
func (h *hooks) under(id int) {
	if h != nil {
		h.parent.Store(int64(id))
	}
}

// start switches tracing on for one operation; the returned func
// switches it off again.
func (h *hooks) start(op int) (stop func()) {
	h.op.Store(int64(op))
	h.on.Store(true)
	return func() { h.on.Store(false) }
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// handler wraps the API server: one api.serve span and a byte count
// per request.
func (h *hooks) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !h.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		id := h.tr.begin("api.serve", int(h.parent.Load()), int(h.op.Load()))
		// A proof the handler asks for (a query) hangs under this span.
		// Requests of one operation arrive one at a time.
		caller := h.parent.Swap(int64(id))
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		h.parent.Store(caller)
		h.tr.end(id)
		h.requests.Add(1)
		h.bytes.Add(cw.n)
	})
}

// stageSpans turns zkvm stage callbacks into children of one prove
// span. Segment seals report from several goroutines.
type stageSpans struct {
	tr         *tracer
	parent, op int
	mu         sync.Mutex
	d          map[string]time.Duration
}

func (s *stageSpans) ObserveStage(stage string, d time.Duration) {
	s.tr.addEnded("zkvm.stage."+stage, s.parent, s.op, d)
	s.mu.Lock()
	s.d[stage] += d
	s.mu.Unlock()
}

// proveFunc is the core.Options.Prove wrapper: a zkvm.prove span with
// the stage observer's spans as children.
func (h *hooks) proveFunc() core.ProveFunc {
	return func(prog *zkvm.Program, in []uint32, po zkvm.ProveOptions) (zkvm.AnyReceipt, error) {
		if !h.on.Load() {
			return zkvm.ProveAny(prog, in, po)
		}
		op := int(h.op.Load())
		id := h.tr.begin("zkvm.prove", int(h.parent.Load()), op)
		obs := &stageSpans{tr: h.tr, parent: id, op: op, d: map[string]time.Duration{}}
		po.Observer = obs
		r, err := zkvm.ProveAny(prog, in, po)
		h.tr.end(id)
		h.mu.Lock()
		h.last = proof{input: in, wall: h.tr.dur(id), stages: obs.d}
		h.mu.Unlock()
		return r, err
	}
}
