// Package api is the HTTP layer between the operator (zkflowd) and
// remote auditors (zkflow-verify, zkflow-light): the server exposes
// exactly the public artifacts — status, the commitment ledger and
// its checkpoints, aggregation receipts, inclusion proofs, and proven
// query responses — and the client retrieves and re-verifies them.
// Raw telemetry never crosses this boundary.
//
// The surface is versioned under /api/v1 and registered from a single
// route table (see routes), which the conformance suite walks. Every
// v1 failure returns a JSON error envelope
// {"error":{"code","message"}} with a stable machine-readable code
// and an appropriate status; every route enforces its method. Sealed
// artifacts (receipts, by-epoch checkpoints, pinned proofs) carry an
// ETag and an immutable Cache-Control so consumer-scale fan-out can
// ride HTTP caches; If-None-Match revalidation costs one 304.
package api

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"zkflow/internal/core"
	"zkflow/internal/ledger"
	"zkflow/internal/merkle"
	"zkflow/internal/obs"
)

// Status is the operator status document.
type Status struct {
	Rounds      int    `json:"rounds"`
	Flows       int    `json:"clog_flows"`
	LedgerLen   int    `json:"ledger_len"`
	Checkpoints int    `json:"checkpoints"`
	LatestRoot  string `json:"latest_root,omitempty"`
}

// QueryRequest is the body of POST /api/v1/query.
type QueryRequest struct {
	SQL string `json:"sql"`
}

// QueryResponse is what a query receipt claims: the client's own SQL
// and the answer fields of the receipt's journal. POST /api/v1/query
// serves the receipt and nothing else, so these fields are only as
// good as the receipt, which the caller must still verify.
type QueryResponse struct {
	SQL     string
	Result  uint64
	Matched uint32
	Avg     float64
}

// LedgerPage is one page of GET /api/v1/ledger: Total lets auditors
// sync large ledgers incrementally.
type LedgerPage struct {
	Total   int                 `json:"total"`
	Offset  int                 `json:"offset"`
	Limit   int                 `json:"limit"`
	Entries []ledger.Commitment `json:"entries"`
}

// CheckpointsResponse is GET /api/v1/checkpoints without an epoch
// selector: the checkpoint count and the latest head.
type CheckpointsResponse struct {
	Total  int                `json:"total"`
	Latest *ledger.Checkpoint `json:"latest,omitempty"`
}

// EntryProof pairs one ledger entry with its Merkle inclusion proof.
type EntryProof struct {
	Entry ledger.Commitment `json:"entry"`
	Proof merkle.Proof      `json:"proof"`
}

// EpochProofResponse is GET /api/v1/ledger/{epoch}/proof: every
// commitment the epoch published, each proven against Checkpoint.
type EpochProofResponse struct {
	Epoch      uint64            `json:"epoch"`
	Checkpoint ledger.Checkpoint `json:"checkpoint"`
	Entries    []EntryProof      `json:"entries"`
}

// ReceiptHint names one aggregation round a light client may sample:
// the round index to fetch, the epoch it sealed, and its wire size.
// Which receipt form it is, the receipt's own magic says.
type ReceiptHint struct {
	Round int    `json:"round"`
	Epoch uint64 `json:"epoch"`
	Bytes int    `json:"bytes"`
}

// SyncHints is GET /api/v1/sync/hints: what a spot-checking client
// needs to plan a sampled verification pass. SuggestedSamples
// generalises the LeakageReport sampling bound: verifying that many
// uniformly chosen rounds catches an operator who tampered >=10% of
// the listed rounds with >=95% probability ((1-0.1)^29 < 0.05). The
// hints are operator claims — sampling must use client-side
// randomness, and every fetched receipt re-verifies from scratch.
type SyncHints struct {
	Rounds           int           `json:"rounds"`
	SuggestedSamples int           `json:"suggested_samples"`
	Receipts         []ReceiptHint `json:"receipts"`
}

// Ledger pagination bounds.
const (
	DefaultLedgerPageLimit = 512
	MaxLedgerPageLimit     = 4096
)

// Error is the machine-readable error document inside the envelope.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the v1 failure body: {"error":{"code","message"}}.
type ErrorEnvelope struct {
	Error Error `json:"error"`
}

// Stable v1 error codes. These are API surface: clients dispatch on
// them, so changing one is a breaking change. DESIGN.md §11 documents
// which routes emit which.
const (
	CodeBadRequest        = "bad_request"        // malformed parameter or body
	CodeInvalidQuery      = "invalid_query"      // SQL failed to parse/compile
	CodeMethodNotAllowed  = "method_not_allowed" // wrong HTTP method
	CodeNotFound          = "not_found"          // no such endpoint/round/epoch
	CodeCheckpointUnknown = "checkpoint_unknown" // checkpoint selector matches no sealed checkpoint
	CodeInternal          = "internal"           // operator-side failure
)

// AllErrorCodes enumerates every code the v1 surface can emit; the
// conformance test asserts responses stay within it.
var AllErrorCodes = []string{
	CodeBadRequest, CodeInvalidQuery, CodeMethodNotAllowed,
	CodeNotFound, CodeCheckpointUnknown, CodeInternal,
}

// servedReceipt is one sealed aggregation round: its wire bytes, the
// epoch it covered, the strong ETag the immutable route serves, and the
// CLog size and root its journal commits to, which the status route
// reports.
type servedReceipt struct {
	epoch uint64
	bin   []byte
	etag  string
	flows int
	root  string // hex of all 32 bytes of the journal's NewRoot
}

// Server serves the operator's public artifacts.
type Server struct {
	prover *core.Prover
	ledger *ledger.Ledger

	metrics      *obs.Registry
	receiptBytes *obs.Counter
	notModified  *obs.Counter

	mu       sync.RWMutex
	receipts []servedReceipt
}

// NewServer wraps a prover and its public ledger. The server meters
// itself into a private registry; UseRegistry swaps in a shared one.
func NewServer(p *core.Prover, lg *ledger.Ledger) *Server {
	return &Server{prover: p, ledger: lg, metrics: obs.NewRegistry()}
}

// UseRegistry routes the server's HTTP metrics into reg, so one
// registry carries the whole daemon (prover stages, epoch batches, HTTP).
// Must be called before Handler.
func (s *Server) UseRegistry(reg *obs.Registry) { s.metrics = reg }

// AddAggregationResult registers a completed round's receipt for
// serving: the wire format is the receipt's own magic-tagged binary
// encoding, served under a strong ETag with immutable caching. The round's epoch keys
// the sync-hint and sampling surface: rounds come in epoch order, the
// order the prover's chain commits them.
func (s *Server) AddAggregationResult(res *core.AggregationResult) error {
	bin, err := res.Receipt.MarshalBinary()
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	root := res.Journal.NewRoot.Bytes()
	rec := servedReceipt{
		epoch: res.Epoch,
		bin:   bin,
		etag:  `"agg-` + hex.EncodeToString(sum[:12]) + `"`,
		flows: int(res.Journal.NewCount),
		root:  hex.EncodeToString(root[:]),
	}
	s.mu.Lock()
	s.receipts = append(s.receipts, rec)
	s.mu.Unlock()
	return nil
}

// RouteInfo describes one registered route — the single source of
// truth the conformance suite walks.
type RouteInfo struct {
	// Name is the metrics label (http.requests.<name>.*).
	Name string
	// Method is the enforced HTTP method ("" = any).
	Method string
	// Pattern is the mux registration pattern.
	Pattern string
	// Probe is a concrete path expected to succeed (2xx) against the
	// conformance fixture: a server with 2 routers and at
	// least one aggregated, checkpointed epoch.
	Probe string
	// CacheProbe, when non-empty, is a concrete path (same fixture)
	// whose 200 response must carry a strong ETag and an immutable
	// Cache-Control, and answer If-None-Match with 304.
	CacheProbe string
}

// route pairs the public description with the handler.
type route struct {
	info RouteInfo
	h    http.HandlerFunc
}

// routes is the v1 surface, in registration order. Handler and
// RouteTable both derive from it.
func (s *Server) routes() []route {
	return []route{
		{RouteInfo{Name: "status", Method: http.MethodGet, Pattern: "/api/v1/status", Probe: "/api/v1/status"}, s.handleStatus},
		{RouteInfo{Name: "ledger", Method: http.MethodGet, Pattern: "/api/v1/ledger", Probe: "/api/v1/ledger"}, s.handleLedgerV1},
		{RouteInfo{Name: "ledger_proof", Method: http.MethodGet, Pattern: "/api/v1/ledger/{epoch}/proof", Probe: "/api/v1/ledger/0/proof", CacheProbe: "/api/v1/ledger/0/proof?checkpoint=2"}, s.handleEpochProof},
		{RouteInfo{Name: "checkpoints", Method: http.MethodGet, Pattern: "/api/v1/checkpoints", Probe: "/api/v1/checkpoints", CacheProbe: "/api/v1/checkpoints?epoch=0"}, s.handleCheckpoints},
		{RouteInfo{Name: "sync_hints", Method: http.MethodGet, Pattern: "/api/v1/sync/hints", Probe: "/api/v1/sync/hints"}, s.handleSyncHints},
		{RouteInfo{Name: "receipts_agg", Method: http.MethodGet, Pattern: "/api/v1/receipts/agg/{round}", Probe: "/api/v1/receipts/agg/0", CacheProbe: "/api/v1/receipts/agg/0"}, s.handleReceipt},
		{RouteInfo{Name: "query", Method: http.MethodPost, Pattern: "/api/v1/query"}, s.handleQuery},
		{RouteInfo{Name: "metrics", Method: http.MethodGet, Pattern: "/api/v1/metrics", Probe: "/api/v1/metrics"}, s.handleMetrics},
		{RouteInfo{Name: "other", Pattern: "/api/v1/"}, func(w http.ResponseWriter, r *http.Request) {
			writeError(w, http.StatusNotFound, CodeNotFound, "no such endpoint: "+r.URL.Path)
		}},
	}
}

// RouteTable exposes the registered routes for conformance testing
// and documentation generation.
func (s *Server) RouteTable() []RouteInfo {
	rs := s.routes()
	out := make([]RouteInfo, len(rs))
	for i := range rs {
		out[i] = rs[i].info
	}
	return out
}

// Handler returns the HTTP handler, built from the route table. Every
// route is wrapped by the metrics middleware (per-route request
// counters by status class and a latency histogram). The pprof debug
// mux is deliberately NOT here: it only exists behind zkflowd's
// -debug-addr listener.
func (s *Server) Handler() http.Handler {
	s.receiptBytes = s.metrics.Counter("http.receipt_bytes")
	s.notModified = s.metrics.Counter("http.not_modified")
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		h := rt.h
		if rt.info.Method != "" {
			h = method(rt.info.Method, h)
		}
		mux.HandleFunc(rt.info.Pattern, s.instrument(rt.info.Name, h))
	}
	return mux
}

// statusRecorder counts a response in its status class the moment the
// status is set, before any byte of it can reach the client: a client
// that has read a response always finds its request counted.
type statusRecorder struct {
	http.ResponseWriter
	classes *[5]*obs.Counter // 1xx..5xx
	status  int
}

func (r *statusRecorder) setStatus(code int) {
	if r.status != 0 {
		return
	}
	r.status = code
	if cls := code/100 - 1; cls >= 0 && cls < len(r.classes) {
		r.classes[cls].Inc()
	}
}

func (r *statusRecorder) WriteHeader(code int) {
	r.setStatus(code)
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.setStatus(http.StatusOK)
	return r.ResponseWriter.Write(b)
}

// instrument wraps a route with per-route metrics: request counters
// split by status class (http.requests.<route>.<1xx..5xx>) and a
// latency histogram (http.latency_seconds.<route>). Handles are
// resolved once per route at mux-build time, so the per-request path
// is a clock read plus a few atomic ops.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	var classes [5]*obs.Counter
	for i := range classes {
		classes[i] = s.metrics.Counter(fmt.Sprintf("http.requests.%s.%dxx", route, i+1))
	}
	lat := s.metrics.Histogram("http.latency_seconds."+route, obs.DefaultLatencyBuckets)
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, classes: &classes}
		t0 := time.Now()
		h(rec, r)
		lat.Observe(time.Since(t0).Seconds())
		rec.setStatus(http.StatusOK) // a handler that wrote nothing answered 200
	}
}

// handleMetrics serves the registry snapshot: per-route HTTP metrics
// plus whatever the prover and its epoch batches reported into the shared
// registry (see core/metrics.go for the name schema).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.metrics.Snapshot())
}

// method wraps a handler with method enforcement; mismatches get the
// v1 error envelope and an Allow header.
func method(want string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != want {
			w.Header().Set("Allow", want)
			writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
				fmt.Sprintf("%s requires %s", r.URL.Path, want))
			return
		}
		h(w, r)
	}
}

// immutable marks the response as a sealed artifact (strong ETag,
// year-long immutable Cache-Control) and answers a matching
// If-None-Match with 304. Returns true when the 304 completed the
// response.
func (s *Server) immutable(w http.ResponseWriter, r *http.Request, etag string) bool {
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		s.notModified.Inc()
		return true
	}
	return false
}

// etagMatches implements the If-None-Match comparison: a comma-
// separated candidate list, weak validators compared by opaque value,
// and the * wildcard.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

// status describes the last served round — not a round the prover has
// committed but not yet handed to AddAggregationResult — and the ledger.
func (s *Server) status() Status {
	st := Status{LedgerLen: s.ledger.Len()}
	st.Checkpoints, _ = s.ledger.Sealed()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if st.Rounds = len(s.receipts); st.Rounds > 0 {
		last := &s.receipts[st.Rounds-1]
		st.Flows, st.LatestRoot = last.flows, last.root
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.status())
}

// handleLedgerV1 serves one page of the commitment ledger.
func (s *Server) handleLedgerV1(w http.ResponseWriter, r *http.Request) {
	offset, ok := queryInt(w, r, "offset", 0)
	if !ok {
		return
	}
	limit, limitSet, ok := queryIntOpt(w, r, "limit")
	if !ok {
		return
	}
	if !limitSet {
		limit = DefaultLedgerPageLimit
	}
	if offset < 0 || limit < 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "offset and limit must be non-negative")
		return
	}
	// An explicit limit=0 is a count-only request: the client gets
	// Total (and an empty page) without paying for any entries. Only
	// an absent limit selects the default, and oversized limits clamp.
	if limit > MaxLedgerPageLimit {
		limit = MaxLedgerPageLimit
	}
	page := LedgerPage{Offset: offset, Limit: limit}
	page.Entries, page.Total = s.ledger.Page(offset, limit)
	writeJSON(w, page)
}

// handleCheckpoints serves the checkpoint surface: with ?epoch=N the
// sealed (immutable, cacheable) checkpoint for that epoch; otherwise
// the mutable "latest" document.
func (s *Server) handleCheckpoints(w http.ResponseWriter, r *http.Request) {
	if raw := r.URL.Query().Get("epoch"); raw != "" {
		epoch, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "epoch must be a non-negative integer")
			return
		}
		cp, err := s.ledger.CheckpointByEpoch(epoch)
		if err != nil {
			writeError(w, http.StatusNotFound, CodeCheckpointUnknown, fmt.Sprintf("no checkpoint sealed for epoch %d", epoch))
			return
		}
		if s.immutable(w, r, checkpointETag(cp)) {
			return
		}
		writeJSON(w, cp)
		return
	}
	var resp CheckpointsResponse
	var latest ledger.Checkpoint
	if resp.Total, latest = s.ledger.Sealed(); resp.Total > 0 {
		resp.Latest = &latest
	}
	writeJSON(w, resp)
}

// checkpointETag derives the strong ETag of a sealed checkpoint from
// its digest.
func checkpointETag(cp ledger.Checkpoint) string {
	d := cp.Digest()
	return `"cp-` + hex.EncodeToString(d[:12]) + `"`
}

// handleEpochProof serves Merkle inclusion proofs for every
// commitment an epoch published, against a checkpoint: the latest by
// default, or the one covering exactly ?checkpoint=<count> entries —
// the form a light client pins, which is immutable and cacheable.
func (s *Server) handleEpochProof(w http.ResponseWriter, r *http.Request) {
	epoch, err := strconv.ParseUint(r.PathValue("epoch"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "epoch must be a non-negative integer")
		return
	}
	var cp ledger.Checkpoint
	pinned := false
	if raw := r.URL.Query().Get("checkpoint"); raw != "" {
		count, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "checkpoint must be an entry count")
			return
		}
		if cp, err = s.ledger.CheckpointByCount(count); err != nil {
			writeError(w, http.StatusNotFound, CodeCheckpointUnknown, fmt.Sprintf("no checkpoint covers exactly %d entries", count))
			return
		}
		pinned = true
	} else if cp, err = s.ledger.LatestCheckpoint(); err != nil {
		writeError(w, http.StatusNotFound, CodeCheckpointUnknown, "no checkpoint sealed yet")
		return
	}
	resp := EpochProofResponse{Epoch: epoch, Checkpoint: cp, Entries: []EntryProof{}}
	for _, c := range s.ledger.EpochEntries(epoch, cp.Count) {
		p, err := s.ledger.ProveInclusion(c.Index, cp)
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
			return
		}
		resp.Entries = append(resp.Entries, EntryProof{Entry: c, Proof: p})
	}
	if len(resp.Entries) == 0 {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("no commitments for epoch %d under that checkpoint", epoch))
		return
	}
	if pinned {
		// Proofs against an explicitly pinned checkpoint never change.
		d := cp.Digest()
		if s.immutable(w, r, fmt.Sprintf(`"proof-%d-%s"`, epoch, hex.EncodeToString(d[:12]))) {
			return
		}
	}
	writeJSON(w, resp)
}

// handleSyncHints serves the spot-verification planning surface:
// which rounds exist, which epochs they sealed, their sizes, and the
// sampling bound. ?from=<epoch> restricts hints to later epochs.
func (s *Server) handleSyncHints(w http.ResponseWriter, r *http.Request) {
	from := int64(-1)
	if raw := r.URL.Query().Get("from"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 63)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "from must be a non-negative integer epoch")
			return
		}
		from = int64(v)
	}
	s.mu.RLock()
	hints := SyncHints{Rounds: len(s.receipts), Receipts: []ReceiptHint{}}
	// Rounds are served in epoch order: skip to the first past from.
	first := sort.Search(len(s.receipts), func(i int) bool { return from < 0 || s.receipts[i].epoch > uint64(from) })
	for i, rec := range s.receipts[first:] {
		hints.Receipts = append(hints.Receipts, ReceiptHint{Round: first + i, Epoch: rec.epoch, Bytes: len(rec.bin)})
	}
	s.mu.RUnlock()
	// (1-0.1)^29 < 0.05: 29 uniform samples catch a >=10% tamper rate
	// with >=95% probability; fewer rounds than that, sample them all.
	hints.SuggestedSamples = min(len(hints.Receipts), 29)
	writeJSON(w, hints)
}

func (s *Server) handleReceipt(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("round"))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "round index must be an integer")
		return
	}
	// Written after RUnlock: a stalled download must not hold up
	// AddAggregationResult, nor every reader queued behind it.
	s.mu.RLock()
	ok := n >= 0 && n < len(s.receipts)
	var rec servedReceipt
	if ok {
		rec = s.receipts[n]
	}
	s.mu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("round %d not aggregated yet", n))
		return
	}
	if s.immutable(w, r, rec.etag) {
		return
	}
	s.writeReceipt(w, rec.bin)
}

// handleQuery proves a query and answers with the receipt's binary
// encoding alone: the answer is the receipt's journal.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "malformed request body")
		return
	}
	qr, err := s.prover.Query(req.SQL)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidQuery, err.Error())
		return
	}
	bin, err := qr.Receipt.MarshalBinary()
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	s.writeReceipt(w, bin)
}

// writeReceipt is every receipt body the server writes: the receipt's
// own binary encoding, with its length up front so the response is
// never chunked.
func (s *Server) writeReceipt(w http.ResponseWriter, bin []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(bin)))
	// Counted before the body goes out, for the same reason as the
	// status class: whoever has read the receipt must see it counted.
	s.receiptBytes.Add(uint64(len(bin)))
	if _, err := w.Write(bin); err != nil {
		log.Printf("api: writing receipt: %v", err)
	}
}

// queryInt parses an optional integer query parameter, writing a 400
// envelope and returning ok=false when it is present but malformed.
func queryInt(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	v, present, ok := queryIntOpt(w, r, name)
	if !present {
		return def, ok
	}
	return v, ok
}

// queryIntOpt is queryInt distinguishing "absent" from "explicitly
// zero": present reports whether the parameter appeared at all.
func queryIntOpt(w http.ResponseWriter, r *http.Request, name string) (v int, present, ok bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, false, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, name+" must be an integer")
		return 0, true, false
	}
	return v, true, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("api: encoding response: %v", err)
	}
}

// writeError emits the v1 JSON error envelope.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(ErrorEnvelope{Error: Error{Code: code, Message: msg}}); err != nil {
		log.Printf("api: encoding error envelope: %v", err)
	}
}
