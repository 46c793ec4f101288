package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

const (
	// defaultSeconds is BENCHMARK.json's run_seconds: the measured
	// duration of one workload run. On this 2-core host it gives about
	// 60 epochs of epoch-1k, 7 of epoch-4k-seg, 80 epoch ticks of
	// ingest-udp and 110 queries of query-mix.
	defaultSeconds = 20
	// setupReps is how many times each run sets up; setup_s is the
	// median.
	setupReps = 3
)

// worse returns by what share of a, in the metric's bad direction, b
// is worse than a (negative when b is better).
func worse(d def, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints, for every end-to-end metric of every workload,
// the value each set measured, the largest relative difference
// between two sets and the metric's bound, and flags pairs outside
// it. It reports whether every pair stayed inside.
func compareSets(w io.Writer, sets [][]*result) bool {
	ok := true
	fmt.Fprintf(w, "\n=== repeatability: %d sets of the same binary ===\n", len(sets))
	fmt.Fprintf(w, "%-14s %-20s %-28s %9s %7s\n", "workload", "metric", "value per set", "max diff", "bound")
	for wi := range sets[0] {
		for _, d := range endToEndDefs {
			var vals []float64
			var shown []string
			diff := 0.0
			for _, set := range sets {
				v := set[wi].endToEnd(d.name).Value
				vals = append(vals, v)
				shown = append(shown, fmt.Sprintf("%.6g", v))
			}
			for _, a := range vals {
				for _, b := range vals {
					diff = math.Max(diff, worse(d, a, b))
				}
			}
			flag := ""
			if diff > d.bound {
				flag, ok = "  OUTSIDE BOUND: lengthen the run", false
			}
			fmt.Fprintf(w, "%-14s %-20s %-28s %8.2f%% %6.0f%%%s\n", sets[0][wi].Workload, d.name, strings.Join(shown, "  "), 100*diff, 100*d.bound, flag)
		}
	}
	return ok
}

// writeJSON writes the machine-readable document: the environment and,
// per set and workload, every metric with unit and sample count and
// the numerator and denominator of failed_pct.
func writeJSON(path string, seed int64, sets [][]*result) error {
	doc := struct {
		Environment environment `json:"environment"`
		Sets        [][]*result `json:"sets"`
	}{readEnvironment(seed), sets}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
