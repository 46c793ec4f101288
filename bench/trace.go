package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans of one operation (an epoch, a
// query, an ingest run) share Op; Parent is the ID of the span that
// caused this one, -1 for the operation's root. Times are nanoseconds
// since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. Every span comes
// from the benchmark's own files: around the calls into each layer,
// from the core.Options.Prove wrapper, the zkvm stage observer and
// the http.Handler wrapper. A nil tracer records nothing, so the
// untraced path pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// addEnded records a span that just finished and lasted d — the shape
// of a zkvm.StageObserver callback.
func (t *tracer) addEnded(name string, parent, op int, d time.Duration) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Start: now - d.Nanoseconds(), End: now, Parent: parent, Op: op})
}

// dur returns a closed span's duration.
func (t *tracer) dur(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// write dumps every span as one JSON document.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	t.mu.Lock()
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(buf, '\n'), 0o644)
}

// budget is the layer budget of a traced run: the wall time of the
// traced operations split among span names so that the rows sum to
// the wall exactly.
type budget struct {
	ops   int
	wall  float64            // ns, summed over the root spans
	rows  map[string]float64 // span name -> attributed ns
	root  string
	total map[string]float64 // span name -> summed plain durations, ns
}

// attribute computes the budget. Within one operation every instant
// of the root span goes to the deepest spans active at that instant
// (those with no active child), split equally when several run side
// by side, as segment seals do at prover width >1. A span's row is
// therefore its self time (its duration minus what its children
// cover), counted in wall rather than CPU time, and the rows sum to
// the wall. The root's own row is the time no child span covers: the
// unattributed remainder.
func (t *tracer) attribute() *budget {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	b := &budget{rows: map[string]float64{}, total: map[string]float64{}}
	byOp := map[int][]span{}
	for _, s := range spans {
		if s.End < 0 {
			continue // never closed: the call failed and the run is aborting
		}
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	for _, group := range byOp {
		var root *span
		for i := range group {
			if group[i].Parent < 0 {
				root = &group[i]
				break
			}
		}
		if root == nil {
			continue
		}
		b.ops++
		b.root = root.Name
		b.wall += float64(root.End - root.Start)
		cuts := make([]int64, 0, 2*len(group))
		for i := range group {
			s := &group[i]
			// A child can outlive its parent by scheduling jitter (a
			// handler returning after the client has its bytes); clip to
			// the root so the rows still sum to the wall.
			s.Start, s.End = max(s.Start, root.Start), min(s.End, root.End)
			if s.End < s.Start {
				s.End = s.Start
			}
			b.total[s.Name] += float64(s.End - s.Start)
			cuts = append(cuts, s.Start, s.End)
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		hasChild := map[int]bool{}
		var leaves []*span
		for k := 0; k+1 < len(cuts); k++ {
			lo, hi := cuts[k], cuts[k+1]
			if hi == lo {
				continue
			}
			clear(hasChild)
			leaves = leaves[:0]
			for i := range group {
				if s := &group[i]; s.Start <= lo && s.End >= hi {
					hasChild[s.Parent] = true
					leaves = append(leaves, s)
				}
			}
			n := 0
			for _, s := range leaves {
				if !hasChild[s.ID] {
					leaves[n] = s
					n++
				}
			}
			for _, s := range leaves[:n] {
				b.rows[s.Name] += float64(hi-lo) / float64(n)
			}
		}
	}
	return b
}

// unattributedPct is the share of the wall no child span covers.
func (b *budget) unattributedPct() float64 {
	if b.wall == 0 {
		return 0
	}
	return 100 * b.rows[b.root] / b.wall
}

// perOpMs returns a span name's attributed wall per operation, in ms.
func (b *budget) perOpMs(name string) float64 {
	if b.ops == 0 {
		return 0
	}
	return b.rows[name] / float64(b.ops) / 1e6
}

// print writes the budget table: one row per span name, largest
// first, with the root's uncovered remainder last.
func (b *budget) print(w io.Writer) {
	names := make([]string, 0, len(b.rows))
	for n := range b.rows {
		if n != b.root {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool { return b.rows[names[i]] > b.rows[names[j]] })
	perOp := b.wall / float64(max(b.ops, 1)) / 1e6
	fmt.Fprintf(w, "layer budget over %d traced %s spans (self time in wall ms per %s; rows sum to the wall)\n", b.ops, b.root, b.root)
	fmt.Fprintf(w, "  %-30s %12s %8s %14s\n", "span", "self ms", "share", "span total ms")
	var sum float64
	for _, n := range names {
		v := b.perOpMs(n)
		sum += v
		fmt.Fprintf(w, "  %-30s %12.3f %7.2f%% %14.3f\n", n, v, 100*b.rows[n]/b.wall, b.total[n]/float64(b.ops)/1e6)
	}
	un := b.perOpMs(b.root)
	fmt.Fprintf(w, "  %-30s %12.3f %7.2f%%\n", "(unattributed)", un, b.unattributedPct())
	fmt.Fprintf(w, "  %-30s %12.3f %7.2f%%   wall %.3f ms\n", "sum", sum+un, 100*(sum+un)/perOp, perOp)
}
