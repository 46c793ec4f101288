package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"zkflow/internal/zkvm"
)

// FuzzDecodeRequest drives the proving-request decoder over arbitrary
// bytes — it parses the body of every job frame a worker is sent, so it
// must never panic — and checks accept implies exact re-encode (the
// framing is canonical).
func FuzzDecodeRequest(f *testing.F) {
	valid := EncodeRequest(simpleProgram(), []uint32{20, 22}, zkvm.ProveOptions{Checks: 6})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:20])
	f.Add([]byte{})
	f.Add([]byte{0x34, 0x77, 0x6b, 0x7a}) // magic alone
	f.Add(EncodeRequest(simpleProgram(), nil, zkvm.ProveOptions{Checks: 6, SegmentCycles: 0xffffffff}))
	huge := append([]byte(nil), valid...)
	huge[12], huge[13], huge[14], huge[15] = 0xff, 0xff, 0xff, 0xff // program length lie
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, input, opts, err := DecodeRequest(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeRequest(prog, input, opts), data) {
			t.Fatal("request re-encode mismatch")
		}
	})
}

// FuzzFarmFrames drives every farm-protocol message decoder over
// arbitrary payloads. These parsers sit on the coordinator's (and
// worker's) network edge: a malformed frame must yield an error —
// never a panic — and anything accepted must re-encode byte-identically
// (canonical framing, so no frame has two spellings).
func FuzzFarmFrames(f *testing.F) {
	f.Add(byte(frameHello), encodeHello(helloMsg{Name: "w1", Capacity: 4}))
	f.Add(byte(frameWelcome), encodeWelcome(welcomeMsg{HeartbeatMs: 500}))
	f.Add(byte(frameHeartbeat), []byte{})
	req := EncodeRequest(simpleProgram(), []uint32{20, 22}, zkvm.ProveOptions{Checks: 6})
	segmentedReq := EncodeRequest(simpleProgram(), []uint32{20, 22}, zkvm.ProveOptions{Checks: 6, SegmentCycles: 64})
	f.Add(byte(frameJob), encodeJob(jobMsg{JobID: 9, SegIndex: 3, Seed: [32]byte{1}, Req: segmentedReq}))
	f.Add(byte(frameJob), foldLeafFrame(req))
	f.Add(byte(frameJob), encodeJob(jobMsg{JobID: 9, SegIndex: 1, Seed: [32]byte{1}, Req: req}))
	f.Add(byte(frameResult), encodeResult(resultMsg{JobID: 9, OK: true, Payload: []byte("x")}))
	f.Add(byte(frameResult), encodeResult(resultMsg{JobID: 9, OK: false, Payload: []byte("boom")}))
	f.Add(byte(0xff), []byte{})
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		switch typ {
		case frameHello:
			if m, err := decodeHello(payload); err == nil {
				if !bytes.Equal(encodeHello(m), payload) {
					t.Fatal("hello re-encode mismatch")
				}
			}
		case frameWelcome:
			if m, err := decodeWelcome(payload); err == nil {
				if !bytes.Equal(encodeWelcome(m), payload) {
					t.Fatal("welcome re-encode mismatch")
				}
			}
		case frameJob:
			if m, err := decodeJob(payload); err == nil {
				if !bytes.Equal(encodeJob(m), payload) {
					t.Fatal("job re-encode mismatch")
				}
				// A structurally valid job may still carry an undecodable
				// request; parseJob must fail cleanly, never panic.
				parseJob(m)
			}
		case frameResult:
			if m, err := decodeResult(payload); err == nil {
				if !bytes.Equal(encodeResult(m), payload) {
					t.Fatal("result re-encode mismatch")
				}
			}
		}
	})
}

// foldLeafFrame is a job payload in the retired fold-leaf layout: after
// Req, a length-prefixed payload (a verification policy and a segment
// receipt).
func foldLeafFrame(req []byte) []byte {
	p := encodeJob(jobMsg{JobID: 9, Seed: [32]byte{1}, Req: req})
	aux := []byte{0, 6, 0, 0, 0, 0x62, 0x66, 0x6b, 0x7a}
	p = binary.LittleEndian.AppendUint32(p, uint32(len(aux)))
	return append(p, aux...)
}

// TestDecodeJobOneLayout: a job frame is its fixed header and Req,
// nothing else, and a whole run (no SegmentCycles) has segment index 0.
func TestDecodeJobOneLayout(t *testing.T) {
	req := EncodeRequest(simpleProgram(), []uint32{20, 22}, zkvm.ProveOptions{Checks: 6})
	good := encodeJob(jobMsg{JobID: 9, Seed: [32]byte{1}, Req: req})
	m, err := decodeJob(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseJob(m); err != nil {
		t.Fatal(err)
	}
	trailing := append(append([]byte(nil), good...), 0)
	for name, p := range map[string][]byte{"fold-leaf frame": foldLeafFrame(req), "trailing byte": trailing, "short header": good[:jobHeader-1]} {
		if _, err := decodeJob(p); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s: got %v, want ErrBadFrame", name, err)
		}
	}
	m.SegIndex = 1
	if _, err := parseJob(m); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("whole run naming segment 1: got %v, want ErrBadFrame", err)
	}
	segmented := EncodeRequest(simpleProgram(), []uint32{20, 22}, zkvm.ProveOptions{Checks: 6, SegmentCycles: 64})
	if _, err := parseJob(jobMsg{JobID: 9, SegIndex: 1, Req: segmented}); err != nil {
		t.Fatalf("segment 1 of a segmented run: %v", err)
	}
}

// FuzzReadFrame drives the stream-level frame reader: arbitrary byte
// streams must decode to at most a prefix of well-formed frames and
// then a clean error, and each accepted frame must re-serialise to the
// exact bytes consumed.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	writeFrame(&good, frameHeartbeat, nil)
	writeFrame(&good, frameResult, encodeResult(resultMsg{JobID: 1, OK: true, Payload: []byte("r")}))
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-2])
	f.Add([]byte{})
	f.Add([]byte{0x61, 0x66, 0x6b, 0x7a}) // magic alone
	f.Add(maxClaimHeader())               // the largest payload a header may claim, none of it sent
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		consumed := 0
		for {
			typ, payload, err := readFrame(r)
			if err != nil {
				return
			}
			var rt bytes.Buffer
			writeFrame(&rt, typ, payload)
			end := consumed + rt.Len()
			if end > len(data) || !bytes.Equal(rt.Bytes(), data[consumed:end]) {
				t.Fatal("frame re-serialisation differs from consumed bytes")
			}
			consumed = end
		}
	})
}

// maxClaimHeader is a frame header claiming a maxFrame payload.
func maxClaimHeader() []byte {
	hdr := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(hdr, frameMagic)
	hdr[4] = frameHello
	binary.LittleEndian.PutUint32(hdr[5:], maxFrame)
	return hdr
}

// TestReadFrameReservesNothingOnAClaim: the coordinator reads frames
// from peers that have not registered. A nine-byte header claiming the
// largest payload, followed by nothing, must cost what nine bytes cost.
func TestReadFrameReservesNothingOnAClaim(t *testing.T) {
	hdr := maxClaimHeader()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("got %v, want ErrBadFrame", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a %d-byte header made readFrame allocate %d bytes", len(hdr), got)
	}
	binary.LittleEndian.PutUint32(hdr[5:], maxFrame+1)
	if _, _, err := readFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("payload over the bound: got %v, want ErrBadFrame", err)
	}
}

// TestReadFrameStagedRoundTrip: payloads on both sides of every point
// where readFrame moves to a larger buffer come back byte for byte.
func TestReadFrameStagedRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, frameChunk, frameChunk + 1, 8 * frameChunk, 8*frameChunk + 7, 9*frameChunk + 3} {
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i * 131 >> 3)
		}
		var buf bytes.Buffer
		writeFrame(&buf, frameJob, want)
		buf.WriteByte(0xee) // the next frame's first byte must stay unread
		typ, got, err := readFrame(&buf)
		if err != nil || typ != frameJob || !bytes.Equal(got, want) || buf.Len() != 1 {
			t.Fatalf("n=%d: typ=%#x err=%v equal=%v left=%d", n, typ, err, bytes.Equal(got, want), buf.Len())
		}
	}
}
