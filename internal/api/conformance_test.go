package api

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"zkflow/internal/ledger"
)

// TestV1Conformance walks the registered route table and enforces the
// API-wide invariants every route must satisfy: method rejection with
// an Allow header and the stable error envelope, probe success,
// and immutable cache headers with working If-None-Match
// revalidation. New routes inherit the whole suite by being added to
// the table.
func TestV1Conformance(t *testing.T) {
	ts, srv := newTestServer(t, 2)
	table := srv.RouteTable()
	if len(table) == 0 {
		t.Fatal("empty route table")
	}
	knownCode := make(map[string]bool, len(AllErrorCodes))
	for _, c := range AllErrorCodes {
		knownCode[c] = true
	}
	// requireEnvelope asserts a non-2xx response is a well-formed v1
	// error envelope with a registered code.
	requireEnvelope := func(t *testing.T, resp *http.Response) Error {
		t.Helper()
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("error Content-Type %q", ct)
		}
		var env ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("error body is not the envelope: %v", err)
		}
		if !knownCode[env.Error.Code] {
			t.Fatalf("error code %q not in AllErrorCodes", env.Error.Code)
		}
		if env.Error.Message == "" {
			t.Fatal("empty error message")
		}
		return env.Error
	}

	for _, rt := range table {
		rt := rt
		t.Run(rt.Name+rt.Pattern, func(t *testing.T) {
			// Method rejection: a method the route does not serve gets
			// 405 + Allow + envelope.
			if rt.Method != "" {
				wrong := http.MethodPost
				if rt.Method == http.MethodPost {
					wrong = http.MethodGet
				}
				probe := rt.Probe
				if probe == "" {
					probe = rt.Pattern
				}
				req, _ := http.NewRequest(wrong, ts.URL+probe, nil)
				resp, err := ts.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusMethodNotAllowed {
					t.Fatalf("%s %s: status %d, want 405", wrong, probe, resp.StatusCode)
				}
				if allow := resp.Header.Get("Allow"); allow != rt.Method {
					t.Fatalf("Allow %q, want %q", allow, rt.Method)
				}
				if e := requireEnvelope(t, resp); e.Code != CodeMethodNotAllowed {
					t.Fatalf("code %q, want %q", e.Code, CodeMethodNotAllowed)
				}
			}

			// Probe success.
			if rt.Probe != "" && rt.Method == http.MethodGet {
				resp, err := ts.Client().Get(ts.URL + rt.Probe)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode/100 != 2 {
					t.Fatalf("GET %s: status %d", rt.Probe, resp.StatusCode)
				}
			}

			// Immutable routes: ETag + immutable Cache-Control + 304.
			if rt.CacheProbe != "" {
				resp, err := ts.Client().Get(ts.URL + rt.CacheProbe)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s: status %d", rt.CacheProbe, resp.StatusCode)
				}
				etag := resp.Header.Get("ETag")
				if etag == "" || strings.HasPrefix(etag, "W/") {
					t.Fatalf("GET %s: missing or weak ETag %q", rt.CacheProbe, etag)
				}
				if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "immutable") {
					t.Fatalf("GET %s: Cache-Control %q not immutable", rt.CacheProbe, cc)
				}
				req, _ := http.NewRequest(http.MethodGet, ts.URL+rt.CacheProbe, nil)
				req.Header.Set("If-None-Match", etag)
				resp, err = ts.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusNotModified {
					t.Fatalf("revalidation of %s: status %d, want 304", rt.CacheProbe, resp.StatusCode)
				}
				if len(body) != 0 {
					t.Fatalf("304 carried a %d-byte body", len(body))
				}
			}
		})
	}
}

// getJSONOK fetches a 200 JSON document into v.
func getJSONOK(t *testing.T, ts string, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRoutes covers the checkpoint surface: the latest
// document, by-epoch fetch, and the error paths.
func TestCheckpointRoutes(t *testing.T) {
	ts, _ := newTestServer(t, 3) // 3 epochs x 2 routers

	var resp CheckpointsResponse
	getJSONOK(t, ts.URL, "/api/v1/checkpoints", &resp)
	if resp.Total != 3 || resp.Latest == nil || resp.Latest.Epoch != 2 || resp.Latest.Count != 6 {
		t.Fatalf("checkpoints: %+v", resp)
	}
	if err := resp.Latest.Validate(); err != nil {
		t.Fatal(err)
	}

	var cp ledger.Checkpoint
	getJSONOK(t, ts.URL, "/api/v1/checkpoints?epoch=1", &cp)
	if cp.Epoch != 1 || cp.Count != 4 {
		t.Fatalf("by epoch: %+v", cp)
	}

	r, err := http.Get(ts.URL + "/api/v1/checkpoints?epoch=99")
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, r, http.StatusNotFound, CodeCheckpointUnknown)
	r, err = http.Get(ts.URL + "/api/v1/checkpoints?epoch=banana")
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, r, http.StatusBadRequest, CodeBadRequest)
}

// TestEpochProofRoute covers the inclusion-proof surface end to end:
// proofs verify against the served checkpoint, and every adversarial
// variation is refused.
func TestEpochProofRoute(t *testing.T) {
	ts, _ := newTestServer(t, 3)

	var pr EpochProofResponse
	getJSONOK(t, ts.URL, "/api/v1/ledger/1/proof", &pr)
	if pr.Epoch != 1 || len(pr.Entries) != 2 {
		t.Fatalf("proof response: epoch %d, %d entries", pr.Epoch, len(pr.Entries))
	}
	if err := pr.Checkpoint.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, ep := range pr.Entries {
		if ep.Entry.Epoch != 1 {
			t.Fatalf("entry for epoch %d in epoch-1 proof", ep.Entry.Epoch)
		}
		if err := ledger.VerifyInclusion(pr.Checkpoint, ep.Entry, ep.Proof); err != nil {
			t.Fatalf("index %d: %v", ep.Entry.Index, err)
		}
	}

	// Tampering with a served entry breaks verification client-side.
	bad := pr.Entries[0].Entry
	bad.Hash[0] ^= 1
	if err := ledger.VerifyInclusion(pr.Checkpoint, bad, pr.Entries[0].Proof); err == nil {
		t.Fatal("tampered served entry verified")
	}

	// Pinned to an earlier checkpoint (count 4 = epochs 0-1): epoch 1
	// proves, epoch 2 does not exist under it.
	getJSONOK(t, ts.URL, "/api/v1/ledger/1/proof?checkpoint=4", &pr)
	if pr.Checkpoint.Count != 4 || len(pr.Entries) != 2 {
		t.Fatalf("pinned proof: %+v", pr)
	}
	r, err := http.Get(ts.URL + "/api/v1/ledger/2/proof?checkpoint=4")
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, r, http.StatusNotFound, CodeNotFound)

	// Error paths: unknown checkpoint count, unknown epoch, junk.
	for _, tc := range []struct {
		path string
		code string
		st   int
	}{
		{"/api/v1/ledger/0/proof?checkpoint=5", CodeCheckpointUnknown, http.StatusNotFound},
		{"/api/v1/ledger/99/proof", CodeNotFound, http.StatusNotFound},
		{"/api/v1/ledger/banana/proof", CodeBadRequest, http.StatusBadRequest},
		{"/api/v1/ledger/0/proof?checkpoint=banana", CodeBadRequest, http.StatusBadRequest},
	} {
		r, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		decodeEnvelope(t, r, tc.st, tc.code)
	}
}

// TestSyncHintsRoute covers the sampling-hint surface.
func TestSyncHintsRoute(t *testing.T) {
	ts, _ := newTestServer(t, 3)
	var hints SyncHints
	getJSONOK(t, ts.URL, "/api/v1/sync/hints", &hints)
	if hints.Rounds != 3 || len(hints.Receipts) != 3 {
		t.Fatalf("hints: %+v", hints)
	}
	if hints.SuggestedSamples != 3 {
		t.Fatalf("suggested samples %d, want all 3", hints.SuggestedSamples)
	}
	for i, h := range hints.Receipts {
		if h.Round != i || h.Epoch != uint64(i) || h.Bytes == 0 {
			t.Fatalf("hint %d: %+v", i, h)
		}
	}
	getJSONOK(t, ts.URL, "/api/v1/sync/hints?from=0", &hints)
	if len(hints.Receipts) != 2 || hints.Receipts[0].Epoch != 1 {
		t.Fatalf("from=0: %+v", hints)
	}
	r, err := http.Get(ts.URL + "/api/v1/sync/hints?from=banana")
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, r, http.StatusBadRequest, CodeBadRequest)
}

// TestReceiptETagStability: the same sealed receipt keeps the same
// ETag across requests, and distinct rounds get distinct ETags.
func TestReceiptETagStability(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	etag := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return resp.Header.Get("ETag")
	}
	e0a, e0b, e1 := etag("/api/v1/receipts/agg/0"), etag("/api/v1/receipts/agg/0"), etag("/api/v1/receipts/agg/1")
	if e0a == "" || e0a != e0b {
		t.Fatalf("unstable ETag: %q then %q", e0a, e0b)
	}
	if e0a == e1 {
		t.Fatal("distinct rounds share an ETag")
	}
}
