package api

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"runtime"
	"testing"
)

// TestReadBodyRejectsOverLimit: a body one byte longer than the limit
// is an error whether or not the server declared its length, never a
// body cut to the limit; a body of exactly the limit reads whole.
func TestReadBodyRejectsOverLimit(t *testing.T) {
	const limit = 100
	for _, n := range []int{0, 1, limit - 1, limit, limit + 1, 3 * limit} {
		body := bytes.Repeat([]byte{0x5a}, n)
		for _, cl := range []int64{int64(n), -1, limit / 2, 1 << 40, math.MaxInt64} {
			got, err := readBody(bytes.NewReader(body), cl, limit)
			if n > limit {
				if !errors.Is(err, errBodyTooLarge) {
					t.Fatalf("%d-byte body (Content-Length %d): %v, want errBodyTooLarge", n, cl, err)
				}
				continue
			}
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("%d-byte body (Content-Length %d): %d bytes, %v", n, cl, len(got), err)
			}
		}
	}
}

// allocatedBytes returns the bytes f allocates on the heap.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadBodyAllocatesOneBody: a 200 KB receipt whose length the
// server declares costs about one body of allocation (io.ReadAll costs
// several, growing its buffer through copies); a Content-Length that
// lies high costs at most maxPrealloc before the bytes arrive.
func TestReadBodyAllocatesOneBody(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	body := bytes.Repeat([]byte{0xa5}, 200<<10)
	var got []byte
	var err error
	n := allocatedBytes(func() { got, err = readBody(bytes.NewReader(body), int64(len(body)), maxReceiptBytes) })
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("read %d bytes, %v", len(got), err)
	}
	if n > uint64(len(body))*9/8 {
		t.Fatalf("reading a %d-byte body allocated %d bytes, want about one body", len(body), n)
	}
	short := []byte("ten bytes!")
	n = allocatedBytes(func() { got, err = readBody(bytes.NewReader(short), 1<<30, maxReceiptBytes) })
	if err != nil || !bytes.Equal(got, short) {
		t.Fatalf("lying Content-Length: read %q, %v", got, err)
	}
	if n > maxPrealloc+1<<10 {
		t.Fatalf("a 1 GiB Content-Length over a 10-byte body allocated %d bytes, want at most %d", n, maxPrealloc)
	}
}

// TestBytesReadCountsBodies: BytesRead grows by the size of each body
// the client reads, a served receipt and a query receipt alike.
func TestBytesReadCountsBodies(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	c := New(ts.URL, WithHTTPClient(ts.Client()))
	resp, err := ts.Client().Get(ts.URL + "/api/v1/receipts/agg/0")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET receipt: %d, %v", resp.StatusCode, err)
	}
	if _, err := c.AggregationReceipt(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if got := c.BytesRead(); got != uint64(len(raw)) {
		t.Fatalf("BytesRead = %d after one %d-byte receipt", got, len(raw))
	}
	_, q, err := c.Query(context.Background(), "SELECT COUNT(*) FROM clogs WHERE dropped > 0;")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.BytesRead(), uint64(len(raw)+q.Size()); got != want {
		t.Fatalf("BytesRead = %d after a %d-byte query receipt, want %d", got, q.Size(), want)
	}
}
