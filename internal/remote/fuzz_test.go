package remote

import (
	"bytes"
	"testing"

	"zkflow/internal/zkvm"
)

// FuzzDecodeRequest drives the proving-request decoder over arbitrary
// bytes — this is the worker's network-facing parser, so it must
// never panic — and checks accept implies exact re-encode (the
// framing is canonical).
func FuzzDecodeRequest(f *testing.F) {
	valid := EncodeRequest(simpleProgram(), []uint32{20, 22}, zkvm.ProveOptions{Checks: 6})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:16])
	f.Add([]byte{})
	f.Add([]byte{0x77, 0x72, 0x6b, 0x7a}) // magic alone
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
	f.Add(byte(frameWelcome), encodeWelcome(welcomeMsg{WorkerID: 7, HeartbeatMs: 500}))
	f.Add(byte(frameHeartbeat), encodeHeartbeat(heartbeatMsg{InFlight: 2}))
	req := EncodeRequest(simpleProgram(), []uint32{20, 22}, zkvm.ProveOptions{Checks: 6})
	f.Add(byte(frameJob), encodeJob(jobMsg{JobID: 9, Mode: jobSegment, SegIndex: 3, Seed: [32]byte{1}, Req: req}))
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
		case frameHeartbeat:
			if m, err := decodeHeartbeat(payload); err == nil {
				if !bytes.Equal(encodeHeartbeat(m), payload) {
					t.Fatal("heartbeat re-encode mismatch")
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

// FuzzReadFrame drives the stream-level frame reader: arbitrary byte
// streams must decode to at most a prefix of well-formed frames and
// then a clean error, and each accepted frame must re-serialise to the
// exact bytes consumed.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	writeFrame(&good, frameHeartbeat, encodeHeartbeat(heartbeatMsg{InFlight: 1}))
	writeFrame(&good, frameResult, encodeResult(resultMsg{JobID: 1, OK: true, Payload: []byte("r")}))
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-2])
	f.Add([]byte{})
	f.Add([]byte{0x61, 0x66, 0x6b, 0x7a}) // magic alone
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

// TestDecodeRequestRoundTrip pins decode(encode(x)) == x on a valid
// request (the fuzz target only checks the reverse composition).
func TestDecodeRequestRoundTrip(t *testing.T) {
	prog := simpleProgram()
	input := []uint32{7, 35, 0xffffffff}
	opts := zkvm.ProveOptions{Checks: 48}
	gotProg, gotInput, gotOpts, err := DecodeRequest(EncodeRequest(prog, input, opts))
	if err != nil {
		t.Fatal(err)
	}
	if gotProg.ID() != prog.ID() {
		t.Fatal("program did not round-trip")
	}
	if len(gotInput) != len(input) {
		t.Fatalf("input length %d, want %d", len(gotInput), len(input))
	}
	for i := range input {
		if gotInput[i] != input[i] {
			t.Fatalf("input[%d] = %d, want %d", i, gotInput[i], input[i])
		}
	}
	if gotOpts.Checks != opts.Checks {
		t.Fatalf("options = %+v, want %+v", gotOpts, opts)
	}
}
