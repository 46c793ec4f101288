package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"zkflow/internal/zkvm"
)

// Farm wire protocol: length-prefixed frames over one long-lived TCP
// connection per worker.
//
//	frame := magic u32 | type u8 | len u32 | payload[len]
//
// All integers little-endian. Decoders are total: any malformed frame
// yields an error (never a panic), and the coordinator answers a
// malformed frame by disconnecting the worker.
const (
	frameMagic = 0x7a6b6661 // "zkfa"

	frameHello     = 0x01 // worker -> coordinator: registration
	frameWelcome   = 0x02 // coordinator -> worker: accepted
	frameHeartbeat = 0x03 // worker -> coordinator: liveness (empty)
	frameJob       = 0x04 // coordinator -> worker: dispatch
	frameResult    = 0x05 // worker -> coordinator: receipt or failure
)

// frameHeader is the fixed prefix size (magic + type + length).
const frameHeader = 9

// maxFrame bounds a frame payload: a job frame carries a program and
// the whole private input of an epoch, a result frame a whole receipt.
const maxFrame = 512 << 20

// frameChunk is what readFrame reserves on a header's say-so. Frames up
// to it — heartbeats, a 1000-record epoch's job, most segment receipts —
// are read into one exact allocation.
const frameChunk = 512 << 10

// ErrBadFrame reports an unparseable farm frame.
var ErrBadFrame = errors.New("remote: malformed farm frame")

// ErrRemote wraps worker-side failures: a job the worker could not
// prove, or a result the coordinator will not accept.
var ErrRemote = errors.New("remote: proving failed")

// writeFrame writes one frame. Callers serialise writes per
// connection.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	hdr := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(hdr, frameMagic)
	hdr[4] = typ
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, bounding the payload at maxFrame. The
// length in the header is a claim — the coordinator reads it from a peer
// that has not registered yet — so it reserves at most frameChunk by
// itself: a longer payload is read in stages of n/8ᵏ, …, n/8, n bytes,
// each reserved only once the one before it has filled with bytes that
// actually arrived. A large frame costs at most a seventh more than its
// size to receive; a claim with nothing behind it costs frameChunk.
func readFrame(r io.Reader) (byte, []byte, error) {
	hdr := make([]byte, frameHeader)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	if binary.LittleEndian.Uint32(hdr) != frameMagic {
		return 0, nil, ErrBadFrame
	}
	typ := hdr[4]
	claim := binary.LittleEndian.Uint32(hdr[5:])
	if claim > maxFrame {
		return 0, nil, ErrBadFrame
	}
	n := int(claim)
	shift := 0
	for n>>shift > frameChunk {
		shift += 3
	}
	payload := make([]byte, 0, n>>shift)
	for {
		if _, err := io.ReadFull(r, payload[len(payload):cap(payload)]); err != nil {
			return 0, nil, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
		}
		payload = payload[:cap(payload)]
		if shift == 0 {
			return typ, payload, nil
		}
		shift -= 3
		payload = append(make([]byte, 0, n>>shift), payload...)
	}
}

// reqMagic opens a proving request, the body of every job frame. Its
// last digit moves with the request layout and with the seal format
// (DESIGN.md §12): a worker speaking another layout, or sealing another
// format, fails with ErrBadRequest before it proves anything. "zkw6"
// asks for seal format v5; "zkw5" asked for v4.
const reqMagic = 0x7a6b7736 // "zkw6"

// EncodeRequest frames a proving request: what to run (program, private
// input) and the prove options that cross the wire — every field of
// zkvm.ProveOptions but the local Observer.
func EncodeRequest(prog *zkvm.Program, input []uint32, opts zkvm.ProveOptions) []byte {
	progBytes := prog.Encode()
	out := make([]byte, 0, 20+len(progBytes)+4*len(input))
	out = binary.LittleEndian.AppendUint32(out, reqMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(opts.Checks))
	out = binary.LittleEndian.AppendUint32(out, uint32(opts.SegmentCycles))
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

// DecodeRequest inverts EncodeRequest. The framing is canonical: what
// decodes re-encodes to the same bytes.
func DecodeRequest(data []byte) (*zkvm.Program, []uint32, zkvm.ProveOptions, error) {
	var opts zkvm.ProveOptions
	const off = 16
	if len(data) < off+4 || binary.LittleEndian.Uint32(data) != reqMagic {
		return nil, nil, opts, ErrBadRequest
	}
	opts.Checks = int(binary.LittleEndian.Uint32(data[4:]))
	opts.SegmentCycles = int(binary.LittleEndian.Uint32(data[8:]))
	// Length checks are done in int64: comparing in uint32 (or a 32-bit
	// int) lets a huge count wrap (4*nIn overflows) and walk past the
	// buffer.
	progLen64 := int64(binary.LittleEndian.Uint32(data[12:]))
	if int64(len(data)-off-4) < progLen64 {
		return nil, nil, opts, ErrBadRequest
	}
	progLen := int(progLen64)
	prog, err := zkvm.DecodeProgram(data[off : off+progLen])
	if err != nil {
		return nil, nil, opts, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	rest := data[off+progLen:]
	nIn := int64(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if int64(len(rest)) != 4*nIn {
		return nil, nil, opts, ErrBadRequest
	}
	input := make([]uint32, nIn)
	for i := range input {
		input[i] = binary.LittleEndian.Uint32(rest[4*i:])
	}
	return prog, input, opts, nil
}

// helloMsg registers a worker: a display name and its proving
// capacity (concurrent job slots).
type helloMsg struct {
	Name     string
	Capacity uint32
}

func encodeHello(m helloMsg) []byte {
	out := make([]byte, 0, 6+len(m.Name))
	out = binary.LittleEndian.AppendUint32(out, m.Capacity)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(m.Name)))
	return append(out, m.Name...)
}

func decodeHello(p []byte) (helloMsg, error) {
	var m helloMsg
	if len(p) < 6 {
		return m, ErrBadFrame
	}
	m.Capacity = binary.LittleEndian.Uint32(p)
	nameLen := int(binary.LittleEndian.Uint16(p[4:]))
	if len(p)-6 != nameLen {
		return m, ErrBadFrame
	}
	m.Name = string(p[6:])
	return m, nil
}

// welcomeMsg accepts a registration: the heartbeat interval the
// coordinator expects. A heartbeat is an empty frame; its arrival is
// the whole message.
type welcomeMsg struct {
	HeartbeatMs uint32
}

func encodeWelcome(m welcomeMsg) []byte {
	return binary.LittleEndian.AppendUint32(nil, m.HeartbeatMs)
}

func decodeWelcome(p []byte) (welcomeMsg, error) {
	if len(p) != 4 {
		return welcomeMsg{}, ErrBadFrame
	}
	return welcomeMsg{HeartbeatMs: binary.LittleEndian.Uint32(p)}, nil
}

// jobMsg dispatches one proving job. Req is an EncodeRequest body
// (program, input, prove options); Seed is the master salt seed the
// job must be proved under, which is what makes independently proved
// segments reassemble byte-identically. A job asks for segment SegIndex
// of the run; a request without SegmentCycles is one segment, so its
// SegIndex is 0.
type jobMsg struct {
	JobID    uint64
	SegIndex uint32
	Seed     [32]byte
	Req      []byte
}

// jobHeader is the fixed prefix of a job payload: ID, segment index,
// seed and the length of Req.
const jobHeader = 48

func encodeJob(m jobMsg) []byte {
	out := make([]byte, 0, jobHeader+len(m.Req))
	out = binary.LittleEndian.AppendUint64(out, m.JobID)
	out = binary.LittleEndian.AppendUint32(out, m.SegIndex)
	out = append(out, m.Seed[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(m.Req)))
	return append(out, m.Req...)
}

func decodeJob(p []byte) (jobMsg, error) {
	var m jobMsg
	if len(p) < jobHeader {
		return m, ErrBadFrame
	}
	m.JobID = binary.LittleEndian.Uint64(p)
	m.SegIndex = binary.LittleEndian.Uint32(p[8:])
	copy(m.Seed[:], p[12:44])
	if int64(binary.LittleEndian.Uint32(p[44:])) != int64(len(p)-jobHeader) {
		return m, ErrBadFrame
	}
	m.Req = p[jobHeader:]
	return m, nil
}

// resultMsg returns a finished job. OK results carry the one-segment
// receipt of the job's segment; failures carry the error text.
type resultMsg struct {
	JobID   uint64
	OK      bool
	Payload []byte
}

func encodeResult(m resultMsg) []byte {
	out := make([]byte, 0, 13+len(m.Payload))
	out = binary.LittleEndian.AppendUint64(out, m.JobID)
	ok := byte(0)
	if m.OK {
		ok = 1
	}
	out = append(out, ok)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(m.Payload)))
	return append(out, m.Payload...)
}

func decodeResult(p []byte) (resultMsg, error) {
	var m resultMsg
	if len(p) < 13 {
		return m, ErrBadFrame
	}
	m.JobID = binary.LittleEndian.Uint64(p)
	switch p[8] {
	case 0:
	case 1:
		m.OK = true
	default:
		return m, ErrBadFrame
	}
	n := binary.LittleEndian.Uint32(p[9:])
	if len(p)-13 != int(n) {
		return m, ErrBadFrame
	}
	m.Payload = p[13:]
	return m, nil
}

// parseJob decodes a job's request. A run proved as one segment has one
// spelling: its segment index is 0.
func parseJob(m jobMsg) (*WorkerJob, error) {
	prog, input, opts, err := DecodeRequest(m.Req)
	if err != nil {
		return nil, err
	}
	if opts.SegmentCycles == 0 && m.SegIndex != 0 {
		return nil, fmt.Errorf("%w: uncut job %d names segment %d", ErrBadFrame, m.JobID, m.SegIndex)
	}
	return &WorkerJob{ID: m.JobID, SegIndex: int(m.SegIndex), Seed: m.Seed, Prog: prog, Input: input, Opts: opts}, nil
}
