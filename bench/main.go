// Command bench is the repository's one benchmark: it carries
// generated telemetry along the whole datagram -> committed epoch ->
// receipt -> light-client-verified path and reports named end-to-end
// and per-layer metrics for four workloads. README.md in this
// directory explains the workloads, the metrics and how to read the
// output; BENCHMARK.json at the repository root is the machine
// contract.
//
//	go run ./bench                         every workload, tracing off
//	go run ./bench -trace 1                every workload traced, one third length, layer budget
//	go run ./bench -sets 2                 the suite twice, pairs compared against their bounds
//	go run ./bench -json bench/out/r.json  also write one machine-readable document
//	go run ./bench --workload epoch-1k --seed 7 --seconds 20 --trace 0
//	                                       one workload; last stdout line is the result object
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// processStart anchors setup_s: set-up is timed from here to the
// first measured operation.
var processStart = time.Now()

// config is one run of one workload.
type config struct {
	seed    int64
	seconds float64 // measured duration
	trace   bool
	toy     bool      // smoke-test sizes: seconds of work shrunk to milliseconds
	reps    int       // how many times set-up runs (median reported)
	outDir  string    // where the traced run writes its spans
	out     io.Writer // human-readable report
	started time.Time // when this workload's first set-up began
}

// result is what one run of one workload measured.
type result struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	FailedPct float64  `json:"failed_pct"`
	EndToEnd  []metric `json:"end_to_end"`          // the contract's names
	Named     []metric `json:"named"`               // the same numbers under the issue's per-workload names, plus extras
	Layers    []metric `json:"per_layer,omitempty"` // traced runs only
	Notes     []string `json:"notes,omitempty"`

	budget *budget
}

func (r *result) endToEnd(name string) metric {
	for _, m := range r.EndToEnd {
		if m.Name == name {
			return m
		}
	}
	return metric{}
}

// workload is one entry of the suite.
type workload struct {
	name string
	why  string
	run  func(*config) (*result, error)
}

var suite = []workload{
	{"epoch-1k", "the paper's Figure-4 size, single-segment: almost all of the wall is the zkVM seal, so prover work shows here and ingest or API work must not",
		func(c *config) (*result, error) { return runEpochWorkload(c, "epoch-1k") }},
	{"epoch-4k-seg", "segmented proving at width >1 with multi-megabyte composite receipts: continuations, receipt codec, API serving and light sync do real work only here",
		func(c *config) (*result, error) { return runEpochWorkload(c, "epoch-4k-seg") }},
	{"ingest-udp", "saturated collector over a real loopback socket, no proving: decode, sharding, store append and commitment hashing do all the work and the zkVM none",
		runIngestUDP},
	{"query-mix", "many small query programs over a fixed CLog through the HTTP API: the same prover used differently from aggregation, so tuning for one that costs the other shows",
		runQueryMix},
}

func findWorkload(name string) *workload {
	for i := range suite {
		if suite[i].name == name {
			return &suite[i]
		}
	}
	return nil
}

// environment is printed with every run and written to -json.
type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
}

func readEnvironment(seed int64) environment {
	env := environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Seed: seed, Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

func (e environment) String() string {
	return fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d %s seed=%d commit=%s", e.GOMAXPROCS, e.NumCPU, e.GoVersion, e.Seed, e.Commit)
}

// runOne runs one workload and prints its report.
func runOne(w *workload, cfg config) (*result, error) {
	fmt.Fprintf(cfg.out, "\n=== %s (%s, %.4gs measured) ===\n%s\n", w.name, traceWord(cfg.trace), cfg.seconds, readEnvironment(cfg.seed))
	res, err := w.run(&cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Workload, res.Traced = w.name, cfg.trace
	if res.Attempted > 0 {
		res.FailedPct = 100 * float64(res.Failed) / float64(res.Attempted)
	}
	printResult(cfg.out, res)
	return res, nil
}

func traceWord(on bool) string {
	if on {
		return "traced"
	}
	return "tracing off"
}

func printResult(w io.Writer, r *result) {
	for _, m := range r.EndToEnd {
		fmt.Fprintln(w, m)
	}
	fmt.Fprintf(w, "%-34s %14.4f %-8s %d of %d\n", "failed_pct", r.FailedPct, "%", r.Failed, r.Attempted)
	if len(r.Named) > 0 {
		fmt.Fprintln(w, "-- under this workload's own names")
		for _, m := range r.Named {
			fmt.Fprintln(w, m)
		}
	}
	if len(r.Layers) > 0 {
		fmt.Fprintln(w, "-- per layer")
		for _, m := range r.Layers {
			if m.N > 0 {
				fmt.Fprintln(w, m)
			}
		}
	}
	if r.budget != nil {
		r.budget.print(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
}

// contractLine is the one JSON object the driver reads from the last
// line of standard output.
func contractLine(r *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := r.EndToEnd
	if r.Traced {
		ms = r.Layers
	}
	metrics := make(map[string]value, len(ms))
	for _, m := range ms {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	buf, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(buf)
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: all, or one of epoch-1k, epoch-4k-seg, ingest-udp, query-mix")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", defaultSeconds, "measured seconds per workload (a traced suite run uses one third)")
		trace   = flag.Int("trace", 0, "1 = traced run: spans, per-layer metrics and the layer budget; 0 = end-to-end metrics with tracing off")
		sets    = flag.Int("sets", 1, "run the whole suite this many times on this binary and compare the sets against the bounds")
		jsonOut = flag.String("json", "", "write one JSON document with the environment and every metric to this path")
		outDir  = flag.String("out", "bench/out", "directory the traced run writes trace-<workload>.json to")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *sets < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, reps: setupReps, outDir: *outDir, out: os.Stdout}

	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		cfg.started = processStart
		res, err := runOne(w, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
			os.Exit(1)
		}
		if *jsonOut != "" {
			if err := writeJSON(*jsonOut, cfg.seed, [][]*result{{res}}); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		}
		fmt.Println(contractLine(res))
		return
	}

	if cfg.trace {
		cfg.seconds /= 3
	}
	var all [][]*result
	for s := 0; s < *sets; s++ {
		if *sets > 1 {
			fmt.Printf("\n##### set %d of %d #####\n", s+1, *sets)
		}
		var set []*result
		for i := range suite {
			cfg.started = time.Now()
			if s == 0 && i == 0 {
				cfg.started = processStart
			}
			res, err := runOne(&suite[i], cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
				os.Exit(1)
			}
			set = append(set, res)
		}
		all = append(all, set)
	}
	ok := true
	if *sets > 1 {
		ok = compareSets(os.Stdout, all)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, cfg.seed, all); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}
