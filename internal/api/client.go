package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"zkflow/internal/guest"
	"zkflow/internal/ledger"
	"zkflow/internal/zkvm"
)

// DefaultRequestTimeout bounds each HTTP request issued by the client
// when the caller's context carries no deadline of its own.
const DefaultRequestTimeout = 2 * time.Minute

// maxReceiptBytes bounds a single downloaded receipt.
const maxReceiptBytes = 256 << 20

// maxPrealloc caps what a response's Content-Length makes readBody
// allocate before any body byte arrives: a lying header costs a client
// at most this much, and a longer body grows the buffer as it arrives.
const maxPrealloc = 1 << 20

// errBodyTooLarge: a response body is longer than the client reads.
var errBodyTooLarge = errors.New("api: response body too large")

// readBody reads a response body of at most limit bytes into one
// buffer sized from contentLength (-1 when unknown), so a receipt whose
// length the server declares costs one allocation of its size, not the
// copies of a growing buffer. A body longer than limit is an error, not
// a truncation.
func readBody(r io.Reader, contentLength, limit int64) ([]byte, error) {
	size := int64(512)
	if contentLength >= 0 {
		// One byte past the body, so the read that finds EOF has room.
		size = min(contentLength, limit, maxPrealloc-1) + 1
	}
	buf := make([]byte, 0, size)
	r = io.LimitReader(r, limit+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return nil, fmt.Errorf("%w: more than %d bytes", errBodyTooLarge, limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// A failed GET (a transport error or a 5xx response) is retried
// getRetries more times, the k-th retry after k × getBackoff. POSTs are
// never retried: the v1 POST surface (query proving) is expensive and
// not idempotent from the operator's point of view.
const (
	getRetries = 2
	getBackoff = 250 * time.Millisecond
)

// Client talks to a zkflowd server over the v1 API. Construct with
// New; the zero value is not usable. Every method takes a context
// that cancels the underlying request; on top of it each request gets
// a per-request timeout (DefaultRequestTimeout unless overridden with
// WithTimeout). A Client is safe for concurrent use.
type Client struct {
	base    string
	http    *http.Client
	timeout time.Duration

	mu        sync.Mutex
	cache     map[string]cacheEntry // nil unless WithCache
	bytesRead uint64
	cacheHits uint64
}

// cacheEntry is one validated immutable response: the ETag the server
// issued and the body it authenticates.
type cacheEntry struct {
	etag string
	body []byte
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (e.g. a test
// server's client, or one with a custom transport). nil keeps the
// default.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) {
		if h != nil {
			c.http = h
		}
	}
}

// WithTimeout overrides the per-request timeout. 0 disables it; the
// caller's context still applies.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithCache enables the client-side validation cache: immutable
// responses are stored with their ETag, revalidated with
// If-None-Match, and replayed on 304 — the light-client sync path
// uses this so re-syncs transfer almost nothing.
func WithCache() Option {
	return func(c *Client) { c.cache = make(map[string]cacheEntry) }
}

// New creates a client for the given base URL (e.g.
// "http://127.0.0.1:8471").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:    base,
		http:    http.DefaultClient,
		timeout: DefaultRequestTimeout,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BytesRead reports the total response-body bytes this client has
// read off the wire (304 revalidations count zero) — the measure the
// light-sync experiment (E17) compares against a full fetch.
func (c *Client) BytesRead() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytesRead
}

// CacheHits reports how many requests were satisfied by a 304
// revalidation of the local cache.
func (c *Client) CacheHits() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cacheHits
}

// requestCtx derives the per-request context.
func (c *Client) requestCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.timeout)
}

// apiError turns a non-200 response into an error, preferring the v1
// JSON envelope and falling back to the raw body.
func apiError(path string, resp *http.Response, body []byte) error {
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		return fmt.Errorf("api: %s: %s: %s (%s)", path, resp.Status, env.Error.Message, env.Error.Code)
	}
	return fmt.Errorf("api: %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
}

// get fetches path with retries and the validation cache, returning
// the response body.
func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt <= getRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Duration(attempt) * getBackoff):
			}
		}
		body, retryable, err := c.getOnce(ctx, path)
		if err == nil {
			return body, nil
		}
		lastErr = err
		if !retryable {
			return nil, err
		}
	}
	return nil, lastErr
}

func (c *Client) getOnce(ctx context.Context, path string) (body []byte, retryable bool, err error) {
	ctx, cancel := c.requestCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, false, err
	}
	var cached cacheEntry
	if c.cache != nil {
		c.mu.Lock()
		cached = c.cache[path]
		c.mu.Unlock()
		if cached.etag != "" {
			req.Header.Set("If-None-Match", cached.etag)
		}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified && cached.etag != "" {
		c.mu.Lock()
		c.cacheHits++
		c.mu.Unlock()
		return cached.body, false, nil
	}
	body, err = readBody(resp.Body, resp.ContentLength, maxReceiptBytes)
	if err != nil {
		return nil, !errors.Is(err, errBodyTooLarge), err
	}
	c.mu.Lock()
	c.bytesRead += uint64(len(body))
	c.mu.Unlock()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode >= 500, apiError(path, resp, body)
	}
	if c.cache != nil {
		if etag := resp.Header.Get("ETag"); etag != "" {
			c.mu.Lock()
			c.cache[path] = cacheEntry{etag: etag, body: body}
			c.mu.Unlock()
		}
	}
	return body, false, nil
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	body, err := c.get(ctx, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// Status fetches the operator status.
func (c *Client) Status(ctx context.Context) (*Status, error) {
	var st Status
	if err := c.getJSON(ctx, "/api/v1/status", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Ledger downloads the whole public commitment ledger through
// LedgerRange, page by page, and rebuilds it with ledger.FromEntries.
// That checks index order, not authenticity: an auditor trusts each
// entry through the receipt journal that binds its hash.
func (c *Client) Ledger(ctx context.Context) (*ledger.Ledger, error) {
	entries, err := c.LedgerRange(ctx, 0, math.MaxInt)
	if err != nil {
		return nil, err
	}
	return ledger.FromEntries(entries)
}

// LedgerRange fetches entries [offset, offset+n), DefaultLedgerPageLimit
// to a request, unverified — the light-client delta fetch, whose
// caller verifies the result against a checkpoint with
// ledger.VerifyExtension. It stops early only at the ledger tip, on the
// first empty page.
func (c *Client) LedgerRange(ctx context.Context, offset, n int) ([]ledger.Commitment, error) {
	var out []ledger.Commitment
	for n > 0 {
		limit := min(n, DefaultLedgerPageLimit)
		var page LedgerPage
		path := fmt.Sprintf("/api/v1/ledger?offset=%d&limit=%d", offset, limit)
		if err := c.getJSON(ctx, path, &page); err != nil {
			return nil, err
		}
		if len(page.Entries) == 0 {
			break
		}
		out = append(out, page.Entries...)
		offset += len(page.Entries)
		n -= len(page.Entries)
	}
	return out, nil
}

// Checkpoints fetches the checkpoint summary: how many are sealed,
// and the latest head.
func (c *Client) Checkpoints(ctx context.Context) (*CheckpointsResponse, error) {
	var resp CheckpointsResponse
	if err := c.getJSON(ctx, "/api/v1/checkpoints", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// CheckpointByEpoch fetches the sealed (immutable) checkpoint for an
// epoch.
func (c *Client) CheckpointByEpoch(ctx context.Context, epoch uint64) (ledger.Checkpoint, error) {
	var cp ledger.Checkpoint
	err := c.getJSON(ctx, "/api/v1/checkpoints?epoch="+strconv.FormatUint(epoch, 10), &cp)
	return cp, err
}

// EpochProof fetches inclusion proofs for every commitment epoch
// published. pin selects the checkpoint to prove against (by its
// entry count — the immutable, cacheable form); nil proves against
// the server's latest checkpoint. The caller must re-verify each
// proof with ledger.VerifyInclusion against a checkpoint it trusts.
func (c *Client) EpochProof(ctx context.Context, epoch uint64, pin *ledger.Checkpoint) (*EpochProofResponse, error) {
	path := fmt.Sprintf("/api/v1/ledger/%d/proof", epoch)
	if pin != nil {
		path += "?checkpoint=" + strconv.FormatUint(pin.Count, 10)
	}
	var resp EpochProofResponse
	if err := c.getJSON(ctx, path, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SyncHints fetches the spot-verification planning document. from >= 0
// restricts the hints to rounds sealing epochs strictly later.
func (c *Client) SyncHints(ctx context.Context, from int64) (*SyncHints, error) {
	path := "/api/v1/sync/hints"
	if from >= 0 {
		path += "?from=" + strconv.FormatInt(from, 10)
	}
	var hints SyncHints
	if err := c.getJSON(ctx, path, &hints); err != nil {
		return nil, err
	}
	return &hints, nil
}

// AggregationReceipt fetches round n's receipt.
func (c *Client) AggregationReceipt(ctx context.Context, n int) (*zkvm.Receipt, error) {
	data, err := c.get(ctx, fmt.Sprintf("/api/v1/receipts/agg/%d", n))
	if err != nil {
		return nil, err
	}
	return zkvm.UnmarshalReceipt(data)
}

// Query submits a SQL query and returns the decoded receipt, which the
// caller must verify, and the answer its journal claims.
func (c *Client) Query(ctx context.Context, sql string) (*QueryResponse, *zkvm.Receipt, error) {
	body, err := json.Marshal(QueryRequest{SQL: sql})
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := c.requestCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/api/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := readBody(resp.Body, resp.ContentLength, maxReceiptBytes)
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	c.bytesRead += uint64(len(raw))
	c.mu.Unlock()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, apiError("/api/v1/query", resp, raw)
	}
	return decodeQueryReceipt(sql, raw)
}

// decodeQueryReceipt reads a POST /api/v1/query body: one binary
// receipt whose journal is a query journal. Decoding checks the shape
// only; whether the receipt proves sql is the verifier's call.
func decodeQueryReceipt(sql string, body []byte) (*QueryResponse, *zkvm.Receipt, error) {
	receipt, err := zkvm.UnmarshalReceipt(body)
	if err != nil {
		return nil, nil, err
	}
	j, err := guest.ParseQueryJournal(receipt.JournalWords())
	if err != nil {
		return nil, nil, err
	}
	return &QueryResponse{SQL: sql, Result: j.Result(), Matched: j.Matched, Avg: j.Avg()}, receipt, nil
}
