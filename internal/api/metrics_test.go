package api

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"zkflow/internal/core"
	"zkflow/internal/ledger"
	"zkflow/internal/obs"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
)

// newMeteredServer builds an operator whose prover and HTTP layer
// share one registry, with one aggregated epoch — the zkflowd wiring.
func newMeteredServer(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: 3, NumFlows: 32, Routers: 2}, st, lg)
	prover := core.NewProver(st, lg, core.Options{Checks: 6, Metrics: reg})
	srv := NewServer(prover, lg)
	srv.UseRegistry(reg)
	if _, err := sim.RunEpoch(context.Background(), 0, 8); err != nil {
		t.Fatal(err)
	}
	res, err := prover.AggregateEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddAggregationResult(res); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

func getSnapshot(t *testing.T, url string) obs.Snapshot {
	t.Helper()
	resp, err := http.Get(url + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/v1/metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics body is not the snapshot envelope: %v", err)
	}
	return snap
}

// TestMetricsEndpoint checks the acceptance criterion end to end:
// after one aggregation round /api/v1/metrics serves per-route HTTP
// metrics, the prover's round counters, and per-stage prover
// histograms, and its own counters are monotone across two requests.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newMeteredServer(t)

	// Touch a route so its counters exist, and a receipt for the
	// bytes-served counter.
	for _, path := range []string{"/api/v1/status", "/api/v1/receipts/agg/0"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}

	s1 := getSnapshot(t, ts.URL)
	if s1.Counters == nil || s1.Gauges == nil || s1.Histograms == nil {
		t.Fatalf("snapshot envelope incomplete: %+v", s1)
	}
	if got := s1.Counters["http.requests.status.2xx"]; got != 1 {
		t.Fatalf("status route counter = %d, want 1", got)
	}
	if got := s1.Counters["http.receipt_bytes"]; got == 0 {
		t.Fatal("receipt bytes counter did not move")
	}
	if h := s1.Histograms["http.latency_seconds.status"]; h.Count != 1 {
		t.Fatalf("status latency count = %d, want 1", h.Count)
	}
	if got := s1.Counters["core.agg_rounds"]; got != 1 {
		t.Fatalf("core.agg_rounds = %d in the shared registry, want 1", got)
	}
	if h := s1.Histograms["prover.stage.seal_seconds"]; h.Count == 0 {
		t.Fatal("prover stage histograms missing after an aggregation round")
	}

	// A query receipt is a receipt body too: the counter grows by
	// exactly its length.
	resp, body := postQuery(t, ts.URL, "SELECT COUNT(*) FROM clogs;")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /api/v1/query = %d: %s", resp.StatusCode, body)
	}

	// Monotone: the metrics route counts itself, so a second snapshot
	// must show strictly more metrics-route requests.
	s2 := getSnapshot(t, ts.URL)
	if got, want := s2.Counters["http.receipt_bytes"]-s1.Counters["http.receipt_bytes"], uint64(len(body)); got != want {
		t.Fatalf("receipt bytes counter grew %d across a query, receipt is %d bytes", got, want)
	}
	if s2.Counters["http.requests.metrics.2xx"] <= s1.Counters["http.requests.metrics.2xx"] {
		t.Fatalf("metrics counter not monotone: %d then %d",
			s1.Counters["http.requests.metrics.2xx"], s2.Counters["http.requests.metrics.2xx"])
	}
	for name, v := range s1.Counters {
		if s2.Counters[name] < v {
			t.Fatalf("counter %q went backwards: %d then %d", name, v, s2.Counters[name])
		}
	}
}

func TestMetricsMethodNotAllowed(t *testing.T) {
	ts, _ := newMeteredServer(t)
	resp, err := http.Post(ts.URL+"/api/v1/metrics", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /api/v1/metrics = %d, want 405", resp.StatusCode)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("405 body is not the error envelope: %v", err)
	}
	if env.Error.Code != CodeMethodNotAllowed {
		t.Fatalf("error code = %q, want %q", env.Error.Code, CodeMethodNotAllowed)
	}
	// The 4xx lands in the metrics route's 4xx class counter.
	if got := getSnapshot(t, ts.URL).Counters["http.requests.metrics.4xx"]; got != 1 {
		t.Fatalf("metrics 4xx counter = %d, want 1", got)
	}
}

// TestDebugMuxNotOnPublicAPI pins the isolation property: pprof lives
// only behind zkflowd's -debug-addr listener (obs.DebugHandler), never
// on the public API mux.
func TestDebugMuxNotOnPublicAPI(t *testing.T) {
	ts, _ := newMeteredServer(t)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/profile", "/debug/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s on the public mux = %d, want 404", path, resp.StatusCode)
		}
	}
}
