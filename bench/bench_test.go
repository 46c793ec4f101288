package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload at toy size, untraced and traced, so
// that `go build ./... && go test ./...` notices when a change to an
// internal API would break the benchmark. It asserts correctness and
// shape only, never a timing.
func TestSmoke(t *testing.T) {
	for i := range suite {
		w := &suite[i]
		for _, traced := range []bool{false, true} {
			cfg := config{
				seed: 3, seconds: 0.2, trace: traced, toy: true, reps: 1,
				outDir: t.TempDir(), out: io.Discard, started: time.Now(),
			}
			res, err := runOne(w, cfg)
			if err != nil {
				t.Fatalf("traced=%v: %v", traced, err)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.name, traced, res.Attempted, res.Failed)
			}
			for j, d := range endToEndDefs {
				if m := res.EndToEnd[j]; m.Name != d.name || m.Unit != d.unit || !(m.Value > 0) {
					t.Errorf("%s traced=%v: end-to-end metric %d is %+v, want a positive %s in %s", w.name, traced, j, m, d.name, d.unit)
				}
			}
			if !traced {
				continue
			}
			if len(res.Layers) != len(layerDefs) {
				t.Fatalf("%s: %d per-layer metrics, want %d", w.name, len(res.Layers), len(layerDefs))
			}
			if res.budget == nil || res.budget.ops == 0 {
				t.Errorf("%s: traced run has no layer budget", w.name)
			} else {
				var sum float64
				for _, v := range res.budget.rows {
					sum += v
				}
				if d := sum - res.budget.wall; d > 1 || d < -1 { // ns
					t.Errorf("%s: budget rows sum to %.0f ns, wall is %.0f ns", w.name, sum, res.budget.wall)
				}
			}
			var line struct {
				Correct bool
				Metrics map[string]struct{ Unit string }
			}
			if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil || !line.Correct || len(line.Metrics) != len(layerDefs) {
				t.Errorf("%s: result line does not carry every per-layer metric: %v", w.name, err)
			}
		}
	}
}

// TestContractMatchesCode keeps BENCHMARK.json and the benchmark's own
// tables in step: same workloads, metric names, units, directions and
// bounds, and the run length the flag defaults to.
func TestContractMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name, Unit, Better string
		Bound              float64
	}
	var c struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []m `json:"end_to_end"`
		PerLayer   []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(suite) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the suite", len(c.Workloads), len(suite))
	}
	for i, w := range c.Workloads {
		if w.Name != suite[i].name || w.Why != suite[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the suite %q (%q)", i, w.Name, w.Why, suite[i].name, suite[i].why)
		}
	}
	same := func(kind string, got []m, want []def) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEndDefs)
	same("per_layer", c.PerLayer, layerDefs)
}
