// Package remote implements off-path proof generation (paper §2.2 and
// §7: routers and collectors are resource-constrained, so "proof
// generation [is] performed on an off-path compute environment,
// decoupled from the data collection process"). A Worker is a
// stateless HTTP service that executes a guest program over private
// inputs and returns the receipt; the Client side plugs into
// core.Options as a drop-in ProveFunc.
//
// Trust model: the worker is the operator's own compute node — it
// sees private inputs (like the paper's off-path prover) but cannot
// forge results, because the operator re-checks the returned
// receipt's seal and the eventual verifiers check it again.
package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"zkflow/internal/obs"
	"zkflow/internal/zkvm"
)

// reqMagic versions the request framing. v1 carries (Checks, a
// reserved word); v2 appends SegmentCycles for continuation proving.
// The reserved word held ProveOptions.Segments until that knob was
// removed (no client ever set it): it must be zero, so the layout did
// not move and the framing stays canonical.
// EncodeRequest emits v1 whenever SegmentCycles is zero so upgraded
// clients keep working against v1 workers, and the worker accepts
// both.
const (
	reqMagic   = 0x7a6b7277 // "zkrw"
	reqMagicV2 = 0x7a6b7732 // "zkw2"
)

// maxRequest bounds a request body (program + inputs).
const maxRequest = 512 << 20

// EncodeRequest frames a proving request.
func EncodeRequest(prog *zkvm.Program, input []uint32, opts zkvm.ProveOptions) []byte {
	progBytes := prog.Encode()
	out := make([]byte, 0, 24+len(progBytes)+4*len(input))
	if opts.SegmentCycles > 0 {
		out = binary.LittleEndian.AppendUint32(out, reqMagicV2)
	} else {
		out = binary.LittleEndian.AppendUint32(out, reqMagic)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(opts.Checks))
	out = binary.LittleEndian.AppendUint32(out, 0) // reserved
	if opts.SegmentCycles > 0 {
		out = binary.LittleEndian.AppendUint32(out, uint32(opts.SegmentCycles))
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(progBytes)))
	out = append(out, progBytes...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(input)))
	for _, w := range input {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

// ErrBadRequest reports an unparseable proving request.
var ErrBadRequest = errors.New("remote: malformed proving request")

// DecodeRequest inverts EncodeRequest, accepting both v1 and v2
// frames.
func DecodeRequest(data []byte) (*zkvm.Program, []uint32, zkvm.ProveOptions, error) {
	var opts zkvm.ProveOptions
	if len(data) < 20 {
		return nil, nil, opts, ErrBadRequest
	}
	off := 16
	switch binary.LittleEndian.Uint32(data) {
	case reqMagic:
	case reqMagicV2:
		if len(data) < 24 {
			return nil, nil, opts, ErrBadRequest
		}
		opts.SegmentCycles = int(binary.LittleEndian.Uint32(data[12:]))
		off = 20
	default:
		return nil, nil, opts, ErrBadRequest
	}
	opts.Checks = int(binary.LittleEndian.Uint32(data[4:]))
	if binary.LittleEndian.Uint32(data[8:]) != 0 {
		return nil, nil, opts, ErrBadRequest
	}
	progLen := binary.LittleEndian.Uint32(data[off-4:])
	// Length checks are done in int (64-bit): comparing in uint32 lets
	// a huge count wrap (4*nIn overflows) and walk past the buffer.
	if len(data)-off < int(progLen) {
		return nil, nil, opts, ErrBadRequest
	}
	prog, err := zkvm.DecodeProgram(data[off : off+int(progLen)])
	if err != nil {
		return nil, nil, opts, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	off += int(progLen)
	if len(data)-off < 4 {
		return nil, nil, opts, ErrBadRequest
	}
	nIn := binary.LittleEndian.Uint32(data[off:])
	off += 4
	if len(data)-off != 4*int(nIn) {
		return nil, nil, opts, ErrBadRequest
	}
	input := make([]uint32, nIn)
	for i := range input {
		input[i] = binary.LittleEndian.Uint32(data[off+4*i:])
	}
	return prog, input, opts, nil
}

// WorkerHandler returns the HTTP handler of a proving worker:
// POST /prove with an EncodeRequest body returns the binary receipt,
// 422 with the error text when the guest aborts or traps (tampered
// inputs must surface as proving failures, not fake receipts).
//
// The worker meters itself into reg (nil = a private registry):
// worker.prove_requests / worker.bad_requests / worker.prove_failures
// / worker.receipts_ok counters, a worker.prove_seconds histogram,
// and the per-stage prover breakdown (prover.stage.*_seconds). The
// snapshot is served at GET /metrics.
func WorkerHandler(reg *obs.Registry) http.Handler {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	var (
		requests   = reg.Counter("worker.prove_requests")
		badReqs    = reg.Counter("worker.bad_requests")
		failures   = reg.Counter("worker.prove_failures")
		receiptsOK = reg.Counter("worker.receipts_ok")
		proveSec   = reg.Histogram("worker.prove_seconds", obs.DefaultLatencyBuckets)
		stages     = obs.NewStageRecorder(reg, "prover.stage.")
	)
	mux := http.NewServeMux()
	mux.HandleFunc("/prove", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		requests.Inc()
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequest))
		if err != nil {
			badReqs.Inc()
			http.Error(w, "request too large", http.StatusRequestEntityTooLarge)
			return
		}
		prog, input, opts, err := DecodeRequest(body)
		if err != nil {
			badReqs.Inc()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		opts.Observer = stages
		t0 := time.Now()
		receipt, err := zkvm.ProveAny(prog, input, opts)
		proveSec.Observe(time.Since(t0).Seconds())
		if err != nil {
			// Guest aborts and traps are semantic failures the caller
			// must see verbatim.
			failures.Inc()
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		bin, err := receipt.MarshalBinary()
		if err != nil {
			failures.Inc()
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(bin)
		receiptsOK.Inc()
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/metrics", obs.MetricsHandler(reg))
	return mux
}

// Client dispatches proving jobs to a worker. Every dispatch attempt
// runs under a per-request deadline, and transient failures (transport
// errors, 5xx) are retried a bounded number of times with exponential
// backoff — a dead or hung worker surfaces as an error instead of
// blocking the sealing pipeline forever. Semantic failures (4xx:
// guest aborts, traps, malformed requests) are never retried; the
// worker would only fail the same way again.
type Client struct {
	base string
	http *http.Client

	// Timeout bounds each dispatch attempt, covering connect, the
	// worker-side proof, and the response body. Zero means
	// DefaultTimeout; negative disables the deadline.
	Timeout time.Duration
	// Retries is the number of extra attempts after the first
	// (DefaultRetries when the field is left zero; negative means no
	// retries).
	Retries int
	// Backoff is the delay before the first retry, doubling per
	// attempt. Zero means DefaultBackoff.
	Backoff time.Duration
}

// Client retry/deadline defaults. Proofs are minutes-long at the
// largest configured epochs, so the per-attempt deadline is generous;
// it exists to bound a dead worker, not to race the prover.
const (
	DefaultTimeout = 10 * time.Minute
	DefaultRetries = 2
	DefaultBackoff = 500 * time.Millisecond
)

// NewClient creates a worker client (httpClient nil = default).
// Deadline and retry policy come from the exported fields; the zero
// values select the defaults above.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: base, http: httpClient}
}

// ErrRemote wraps worker-side failures.
var ErrRemote = errors.New("remote: proving failed")

// permanentError marks a worker response that retrying cannot fix.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Prove sends the job to the worker and validates the returned
// receipt locally (image ID and seal) before handing it back, so a
// buggy or compromised worker cannot slip an invalid receipt into the
// aggregation chain. With opts.SegmentCycles > 0 the worker proves a
// continuation chain and the result is a *zkvm.CompositeReceipt;
// otherwise a single *zkvm.Receipt.
//
// Prove runs without caller cancellation (it satisfies core.ProveFunc);
// use ProveContext when the dispatch belongs to a cancellable fan-out.
func (c *Client) Prove(prog *zkvm.Program, input []uint32, opts zkvm.ProveOptions) (zkvm.AnyReceipt, error) {
	return c.ProveContext(context.Background(), prog, input, opts)
}

// ProveContext is Prove under a caller context. Cancellation or
// expiry of ctx is permanent: the retry loop unwinds immediately
// instead of burning the remaining backoff budget — a cancelled
// fan-out used to pay the full retry schedule per worker before
// returning. Only the per-attempt deadline (Timeout) stays retryable,
// since a hung worker may answer on the next attempt.
func (c *Client) ProveContext(ctx context.Context, prog *zkvm.Program, input []uint32, opts zkvm.ProveOptions) (zkvm.AnyReceipt, error) {
	req := EncodeRequest(prog, input, opts)
	timeout := c.Timeout
	if timeout == 0 {
		timeout = DefaultTimeout
	}
	retries := c.Retries
	if retries == 0 {
		retries = DefaultRetries
	} else if retries < 0 {
		retries = 0
	}
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = DefaultBackoff
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("%w: %v (after %d attempts)", ErrRemote, ctx.Err(), attempt)
			case <-time.After(backoff << (attempt - 1)):
			}
		}
		body, err := c.dispatch(ctx, req, timeout)
		if err != nil {
			var perm *permanentError
			if errors.As(err, &perm) {
				return nil, fmt.Errorf("%w: %v", ErrRemote, perm.err)
			}
			// A dead caller context classifies the failure as permanent
			// no matter how the attempt itself died: retrying cannot
			// outlive the caller.
			if ctx.Err() != nil {
				return nil, fmt.Errorf("%w: %v (after %d attempts)", ErrRemote, ctx.Err(), attempt+1)
			}
			lastErr = err
			continue
		}
		return c.check(prog, body, opts)
	}
	return nil, fmt.Errorf("%w: %d attempts: %v", ErrRemote, retries+1, lastErr)
}

// dispatch performs one deadline-bounded POST /prove attempt under the
// caller's context. A non-2xx status below 500 is permanent; transport
// errors and 5xx are returned plain for the retry loop.
func (c *Client) dispatch(ctx context.Context, reqBody []byte, timeout time.Duration) ([]byte, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/prove", bytes.NewReader(reqBody))
	if err != nil {
		return nil, &permanentError{err}
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxRequest))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
		if resp.StatusCode >= 500 {
			return nil, err
		}
		return nil, &permanentError{err}
	}
	return body, nil
}

// check parses and locally re-verifies a worker receipt.
func (c *Client) check(prog *zkvm.Program, body []byte, opts zkvm.ProveOptions) (zkvm.AnyReceipt, error) {
	receipt, err := zkvm.UnmarshalAnyReceipt(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRemote, err)
	}
	if receipt.Image() != prog.ID() {
		return nil, fmt.Errorf("%w: worker returned a receipt for image %v", ErrRemote, receipt.Image())
	}
	if err := zkvm.VerifyAny(prog, receipt, zkvm.VerifyOptions{AllowNonZeroExit: true}); err != nil {
		return nil, fmt.Errorf("%w: worker receipt invalid: %v", ErrRemote, err)
	}
	if code := receipt.ExitStatus(); code != 0 && !opts.AllowNonZeroExit {
		return nil, &zkvm.GuestAbortError{ExitCode: code, Journal: receipt.JournalWords()}
	}
	return receipt, nil
}

// Serve runs a worker until the listener fails.
func Serve(addr string) error {
	log.Printf("zkflow-worker listening on http://%s", addr)
	srv := &http.Server{Addr: addr, Handler: WorkerHandler(nil)}
	return srv.ListenAndServe()
}
