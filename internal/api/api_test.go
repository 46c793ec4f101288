package api

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"zkflow/internal/core"
	"zkflow/internal/ledger"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
	"zkflow/internal/zkvm"
)

// newTestServer spins up a full operator with n aggregated epochs.
func newTestServer(t *testing.T, epochs int) (*httptest.Server, *Server) {
	t.Helper()
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: 1, NumFlows: 32, Routers: 2}, st, lg)
	prover := core.NewProver(st, lg, core.Options{Checks: 6})
	srv := NewServer(prover, lg)
	for e := 0; e < epochs; e++ {
		if _, err := sim.RunEpoch(context.Background(), uint64(e), 8); err != nil {
			t.Fatal(err)
		}
		res, err := prover.AggregateEpoch(uint64(e))
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.AddAggregationResult(res); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// TestStatusIsTheLastServedRound: /api/v1/status describes the last
// round the server serves, even while the prover has committed a later
// one, and its root is all 32 bytes of that round's NewRoot.
func TestStatusIsTheLastServedRound(t *testing.T) {
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: 1, NumFlows: 32, Routers: 2}, st, lg)
	prover := core.NewProver(st, lg, core.Options{Checks: 6})
	srv := NewServer(prover, lg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := New(ts.URL, WithHTTPClient(ts.Client()))
	ctx := context.Background()

	var served *core.AggregationResult
	for e := uint64(0); e < 2; e++ {
		if _, err := sim.RunEpoch(ctx, e, 8); err != nil {
			t.Fatal(err)
		}
		res, err := prover.AggregateEpoch(e)
		if err != nil {
			t.Fatal(err)
		}
		if e == 0 { // epoch 1 is committed but never served
			served = res
			if err := srv.AddAggregationResult(res); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	root := served.Journal.NewRoot.Bytes()
	if got.Rounds != 1 || got.Flows != int(served.Journal.NewCount) || got.LatestRoot != hex.EncodeToString(root[:]) {
		t.Fatalf("status %+v, want round 1 of %d flows under root %x", got, served.Journal.NewCount, root[:])
	}
}

func TestFullRemoteAuditFlow(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	c := New(ts.URL, WithHTTPClient(ts.Client()))
	ctx := context.Background()

	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 2 || st.LedgerLen != 4 {
		t.Fatalf("status: %+v", st)
	}

	verifier := auditChain(t, c, st.Rounds)

	sql := "SELECT COUNT(*) FROM clogs;"
	qres, receipt, err := c.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	j, err := verifier.VerifyQuery(sql, receipt)
	if err != nil {
		t.Fatal(err)
	}
	want := QueryResponse{SQL: sql, Result: j.Result(), Matched: j.Matched, Avg: j.Avg()}
	if *qres != want {
		t.Fatalf("query response %+v, verified journal says %+v", *qres, want)
	}
}

// auditChain downloads the ledger and verifies the first n
// aggregation receipts in order, returning the verifier that trusts
// their final root.
func auditChain(t *testing.T, c *Client, n int) *core.Verifier {
	t.Helper()
	ctx := context.Background()
	lg, err := c.Ledger(ctx)
	if err != nil {
		t.Fatalf("ledger: %v", err)
	}
	verifier := core.NewVerifier(lg)
	for round := 0; round < n; round++ {
		receipt, err := c.AggregationReceipt(ctx, round)
		if err != nil {
			t.Fatalf("receipt %d: %v", round, err)
		}
		if _, err := verifier.VerifyAggregation(receipt); err != nil {
			t.Fatalf("verify round %d: %v", round, err)
		}
	}
	return verifier
}

// postQuery sends sql to POST /api/v1/query as a raw request.
func postQuery(t *testing.T, url, sql string) (*http.Response, []byte) {
	t.Helper()
	req, err := json.Marshal(QueryRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/api/v1/query", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestQueryServesBinaryReceipt pins the query route's wire shape: a
// proven query answers with the receipt's binary encoding alone, its
// length declared up front, and that body verifies.
func TestQueryServesBinaryReceipt(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	sql := "SELECT SUM(packets) FROM clogs;"
	resp, body := postQuery(t, ts.URL, sql)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %q, transfer encoding %q, body %d bytes", cl, resp.TransferEncoding, len(body))
	}
	receipt, err := zkvm.UnmarshalReceipt(body)
	if err != nil {
		t.Fatal(err)
	}
	verifier := auditChain(t, New(ts.URL, WithHTTPClient(ts.Client())), 2)
	if _, err := verifier.VerifyQuery(sql, receipt); err != nil {
		t.Fatal(err)
	}
}

// TestQueryRejectsMalformedBody: a 200 whose body is not one query
// receipt is an error from Client.Query, never a panic or an answer.
func TestQueryRejectsMalformedBody(t *testing.T) {
	ts, srv := newTestServer(t, 1)
	sql := "SELECT COUNT(*) FROM clogs;"
	_, good := postQuery(t, ts.URL, sql)
	if _, _, err := decodeQueryReceipt(sql, good); err != nil {
		t.Fatalf("honest body rejected: %v", err)
	}
	// The route's old shape: the receipt base64-encoded inside JSON.
	oldShape, err := json.Marshal(map[string]any{"sql": sql, "result": 1, "receipt": good})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"empty":       {},
		"truncated":   good[:len(good)/2],
		"agg journal": srv.receipts[0].bin, // a valid receipt whose journal is not 12 words
		"json":        oldShape,
	} {
		stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Write(body)
		}))
		_, _, err := New(stub.URL, WithHTTPClient(stub.Client())).Query(context.Background(), sql)
		stub.Close()
		if err == nil {
			t.Fatalf("%s body accepted", name)
		}
	}
}

func TestQueryRejectsBadSQL(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	c := New(ts.URL, WithHTTPClient(ts.Client()))
	if _, _, err := c.Query(context.Background(), "SELECT NONSENSE"); err == nil {
		t.Fatal("bad SQL accepted")
	}
}

func TestQueryRejectsGet(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	resp, err := ts.Client().Get(ts.URL + "/api/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// decodeEnvelope asserts the response carries the v1 error envelope
// with the expected code.
func decodeEnvelope(t *testing.T, resp *http.Response, wantStatus int, wantCode string) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error Content-Type %q", ct)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not an envelope: %v", err)
	}
	if env.Error.Code != wantCode {
		t.Fatalf("code %q, want %q", env.Error.Code, wantCode)
	}
	if env.Error.Message == "" {
		t.Fatal("empty error message")
	}
}

// TestV1MethodNotAllowed covers the 405 path on every v1 route.
func TestV1MethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	for _, tc := range []struct{ method, path string }{
		{http.MethodPost, "/api/v1/status"},
		{http.MethodPost, "/api/v1/ledger"},
		{http.MethodPost, "/api/v1/receipts/agg/0"},
		{http.MethodGet, "/api/v1/query"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if allow := resp.Header.Get("Allow"); allow == "" {
			t.Fatalf("%s %s: missing Allow header", tc.method, tc.path)
		}
		decodeEnvelope(t, resp, http.StatusMethodNotAllowed, CodeMethodNotAllowed)
	}
}

// TestV1NotFound covers the 404 paths: unknown endpoint and
// out-of-range round, both enveloped.
func TestV1NotFound(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	resp, err := ts.Client().Get(ts.URL + "/api/v1/nonsense")
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusNotFound, CodeNotFound)

	resp, err = ts.Client().Get(ts.URL + "/api/v1/receipts/agg/99")
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusNotFound, CodeNotFound)
}

// TestV1BadRequest covers the 400 paths: non-integer round, malformed
// pagination, bad query body.
func TestV1BadRequest(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	for _, path := range []string{
		"/api/v1/receipts/agg/notanumber",
		"/api/v1/ledger?offset=x",
		"/api/v1/ledger?limit=y",
		"/api/v1/ledger?offset=-1",
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		decodeEnvelope(t, resp, http.StatusBadRequest, CodeBadRequest)
	}
	resp, err := ts.Client().Post(ts.URL+"/api/v1/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusBadRequest, CodeBadRequest)
	resp, err = ts.Client().Post(ts.URL+"/api/v1/query", "application/json", strings.NewReader(`{"sql":"SELECT NONSENSE"}`))
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusBadRequest, CodeInvalidQuery)
}

// TestLedgerLimitZeroIsCountOnly pins the pagination fix: an explicit
// limit=0 used to be coerced to MaxLedgerPageLimit, so count-only
// polling clients paid for a full page. It must return Total with an
// empty page, while an absent limit still selects the default.
func TestLedgerLimitZeroIsCountOnly(t *testing.T) {
	ts, _ := newTestServer(t, 2) // 2 epochs x 2 routers = 4 commitments
	getPage := func(query string) LedgerPage {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/api/v1/ledger" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", query, resp.StatusCode)
		}
		var page LedgerPage
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		return page
	}
	zero := getPage("?limit=0")
	if zero.Total != 4 || zero.Limit != 0 || len(zero.Entries) != 0 {
		t.Fatalf("limit=0 page: %+v", zero)
	}
	absent := getPage("")
	if absent.Total != 4 || absent.Limit != DefaultLedgerPageLimit || len(absent.Entries) != 4 {
		t.Fatalf("default page: total=%d limit=%d entries=%d", absent.Total, absent.Limit, len(absent.Entries))
	}
	if over := getPage("?limit=99999"); over.Limit != MaxLedgerPageLimit {
		t.Fatalf("oversized limit not clamped: %d", over.Limit)
	}
}

// TestLedgerPagination pages a 4-commitment ledger one entry at a
// time, both raw and through the client.
func TestLedgerPagination(t *testing.T) {
	ts, _ := newTestServer(t, 2) // 2 epochs x 2 routers = 4 commitments
	var total []ledger.Commitment
	for offset := 0; ; offset++ {
		resp, err := ts.Client().Get(ts.URL + "/api/v1/ledger?offset=" + strconv.Itoa(offset) + "&limit=1")
		if err != nil {
			t.Fatal(err)
		}
		var page LedgerPage
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if page.Total != 4 || page.Limit != 1 || page.Offset != offset {
			t.Fatalf("page meta: %+v", page)
		}
		if len(page.Entries) == 0 {
			break
		}
		if len(page.Entries) != 1 {
			t.Fatalf("page size %d", len(page.Entries))
		}
		total = append(total, page.Entries...)
		if offset > 8 {
			t.Fatal("runaway pagination")
		}
	}
	if len(total) != 4 {
		t.Fatalf("paged %d entries", len(total))
	}
	// The paged entries rebuild a ledger in index order.
	if _, err := ledger.FromEntries(total); err != nil {
		t.Fatal(err)
	}
	// The client pages transparently and still rebuilds the ledger, here
	// through a proxy that serves one entry a page whatever it is asked.
	var (
		mu    sync.Mutex
		pages []string
	)
	onePerPage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		mu.Lock()
		pages = append(pages, q.Encode())
		mu.Unlock()
		q.Set("limit", "1")
		resp, err := ts.Client().Get(ts.URL + r.URL.Path + "?" + q.Encode())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer onePerPage.Close()
	lg, err := New(onePerPage.URL, WithHTTPClient(onePerPage.Client())).Ledger(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := lg.Len(); n != 4 {
		t.Fatalf("client synced %d entries", n)
	}
	want := []string{"limit=512&offset=0", "limit=512&offset=1", "limit=512&offset=2", "limit=512&offset=3", "limit=512&offset=4"}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(pages, want) {
		t.Fatalf("client requested %q, want %q", pages, want)
	}
}

func TestReceiptNotFound(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	c := New(ts.URL, WithHTTPClient(ts.Client()))
	ctx := context.Background()
	if _, err := c.AggregationReceipt(ctx, 5); err == nil {
		t.Fatal("missing receipt served")
	}
	if _, err := c.AggregationReceipt(ctx, -1); err == nil {
		t.Fatal("negative round served")
	}
	resp, err := ts.Client().Get(ts.URL + "/api/v1/receipts/agg/notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestOversizeQueryBodyRejected(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	big := `{"sql": "` + strings.Repeat("x", 1<<17) + `"}`
	resp, err := ts.Client().Post(ts.URL+"/api/v1/query", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("oversize body accepted")
	}
}

func TestCancelledContext(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	c := New(ts.URL, WithHTTPClient(ts.Client()))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Status(ctx); err == nil {
		t.Fatal("cancelled context succeeded")
	}
}

func TestTamperedServedReceiptCaughtByClientVerifier(t *testing.T) {
	ts, srv := newTestServer(t, 1)
	// The operator serves a corrupted receipt (e.g. bit rot or a
	// malicious swap): the remote verifier must reject it.
	srv.mu.Lock()
	srv.receipts[0].bin[60] ^= 0xff
	srv.mu.Unlock()
	c := New(ts.URL, WithHTTPClient(ts.Client()))
	ctx := context.Background()
	lg, err := c.Ledger(ctx)
	if err != nil {
		t.Fatal(err)
	}
	verifier := core.NewVerifier(lg)
	receipt, err := c.AggregationReceipt(ctx, 0)
	if err == nil {
		_, err = verifier.VerifyAggregation(receipt)
	}
	if err == nil {
		t.Fatal("corrupted served receipt accepted")
	}
}

// TestClientRetriesGets: a GET answered 503, 503, 200 is read in three
// requests; a POST answered 503 is sent once.
func TestClientRetriesGets(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls[r.Method]++
		n := calls[r.Method]
		mu.Unlock()
		if r.Method == http.MethodPost || n < 3 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(Status{Rounds: 7})
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL, WithHTTPClient(ts.Client()))
	ctx := context.Background()
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 7 {
		t.Fatalf("status %+v", st)
	}
	if _, _, err := c.Query(ctx, "SELECT COUNT(*) FROM clogs;"); err == nil {
		t.Fatal("503 query answered")
	}
	mu.Lock()
	defer mu.Unlock()
	if calls[http.MethodGet] != 3 || calls[http.MethodPost] != 1 {
		t.Fatalf("requests %v, want 3 GETs and 1 POST", calls)
	}
}

// stallWriter is a ResponseWriter whose first body write signals
// writing and then blocks until release closes: a client that stops
// reading mid-receipt.
type stallWriter struct {
	*httptest.ResponseRecorder
	writing, release chan struct{}
}

func (w *stallWriter) Write(b []byte) (int, error) {
	close(w.writing)
	<-w.release
	return w.ResponseRecorder.Write(b)
}

// TestStalledReceiptHoldsNoLock: while one client stalls a receipt
// download, a new round can still be registered (the server's write
// lock is free) and /api/v1/status still answers.
func TestStalledReceiptHoldsNoLock(t *testing.T) {
	ts, srv := newTestServer(t, 1)
	sw := &stallWriter{ResponseRecorder: httptest.NewRecorder(), writing: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Handler().ServeHTTP(sw, httptest.NewRequest(http.MethodGet, "/api/v1/receipts/agg/0", nil))
	}()
	// Unstall on every exit, so a failing run leaks no blocked goroutine.
	t.Cleanup(func() { close(sw.release); <-served })
	<-sw.writing

	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { f(); close(done) }()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("%s blocked behind a stalled receipt download", what)
		}
	}
	within("the server's write lock", func() { srv.mu.Lock(); srv.mu.Unlock() })
	within("GET /api/v1/status", func() {
		resp, err := ts.Client().Get(ts.URL + "/api/v1/status")
		if err == nil {
			resp.Body.Close()
		}
	})
}
