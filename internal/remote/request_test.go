package remote

import (
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"testing"

	"zkflow/internal/zkvm"
)

// simpleProgram journals the sum of two input words.
func simpleProgram() *zkvm.Program {
	a := zkvm.NewAssembler()
	a.ReadInput(zkvm.R2)
	a.ReadInput(zkvm.R3)
	a.Add(zkvm.R4, zkvm.R2, zkvm.R3)
	a.WriteJournal(zkvm.R4)
	a.HaltCode(0)
	return a.MustAssemble()
}

// TestRequestRoundTrip pins decode(encode(x)) == x (the fuzz target
// only checks the reverse composition).
func TestRequestRoundTrip(t *testing.T) {
	prog, input := simpleProgram(), []uint32{7, 35, 0xffffffff}
	for _, opts := range []zkvm.ProveOptions{{Checks: 48}, {Checks: 9, SegmentCycles: 4096}} {
		req := EncodeRequest(prog, input, opts)
		p2, in2, o2, err := DecodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if p2.ID() != prog.ID() {
			t.Fatal("program lost")
		}
		if !slices.Equal(in2, input) {
			t.Fatalf("input %v, want %v", in2, input)
		}
		if o2 != opts {
			t.Fatalf("options %+v, want %+v", o2, opts)
		}
		if _, _, _, err := DecodeRequest(req[:len(req)-2]); err == nil {
			t.Fatal("truncated request accepted")
		}
	}
}

// TestRequestCarriesEveryProveOption: every zkvm.ProveOptions field but
// the process-local Observer crosses the wire. The options are filled
// by reflection, so a field added later that the framing drops fails
// here.
func TestRequestCarriesEveryProveOption(t *testing.T) {
	var opts zkvm.ProveOptions
	v := reflect.ValueOf(&opts).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Interface: // Observer
		case reflect.Int:
			f.SetInt(int64(1000 + i))
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("ProveOptions.%s is a %v: encode it and fill it here", v.Type().Field(i).Name, f.Kind())
		}
	}
	_, _, got, err := DecodeRequest(EncodeRequest(simpleProgram(), []uint32{1}, opts))
	if err != nil {
		t.Fatal(err)
	}
	if got != opts {
		t.Fatalf("decoded %+v, sent %+v", got, opts)
	}
}

func TestDecodeRequestRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("tiny"), make([]byte, 40)} {
		if _, _, _, err := DecodeRequest(data); err == nil {
			t.Fatalf("accepted %d bytes of garbage", len(data))
		}
	}
	// A peer one layout behind (magic "zkw3", whose segment jobs were
	// answered with standalone segment receipts) fails cleanly.
	old := EncodeRequest(simpleProgram(), []uint32{1}, zkvm.ProveOptions{})
	binary.LittleEndian.PutUint32(old, 0x7a6b7733)
	if _, _, _, err := DecodeRequest(old); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("previous request layout: got %v, want ErrBadRequest", err)
	}
}

// TestDecodeRequestRejectsPreviousSealFormat: a request from a
// coordinator that wants seal format v4 (magic "zkw5", the same layout)
// is refused at decode, so a worker never proves a job whose receipt
// the other side cannot read.
func TestDecodeRequestRejectsPreviousSealFormat(t *testing.T) {
	req := EncodeRequest(simpleProgram(), []uint32{1}, zkvm.ProveOptions{Checks: 6})
	if _, _, _, err := DecodeRequest(req); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(req, 0x7a6b7735) // "zkw5"
	if _, _, _, err := DecodeRequest(req); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("a zkw5 request: got %v, want ErrBadRequest", err)
	}
}
