package fastagg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"zkflow/internal/gperm"
	"zkflow/internal/stark"
)

// proofDigest is the SHA-256 of every byte a proof carries: the trace
// root, each opened row (position, values, path), the FRI layer roots,
// the final polynomial and each query's openings, in that order.
func proofDigest(p *Proof) string {
	h := sha256.New()
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	h.Write(p.Stark.TraceRoot[:])
	for _, r := range p.Stark.Rows {
		u64(uint64(r.Pos))
		for _, v := range r.Values {
			u64(uint64(v))
		}
		for _, n := range r.Path {
			h.Write(n[:])
		}
	}
	for _, r := range p.Stark.Fri.Roots {
		h.Write(r[:])
	}
	for _, c := range p.Stark.Fri.Final {
		u64(uint64(c))
	}
	for _, q := range p.Stark.Fri.Queries {
		for _, o := range q.Openings {
			u64(uint64(o.Lo))
			u64(uint64(o.Hi))
			for _, n := range o.Path {
				h.Write(n[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestProofBytesPinned pins the chain prover's output byte for byte
// at several widths: a refactor of the STARK stack that moves this
// digest has changed the proof system, not just its code.
func TestProofBytesPinned(t *testing.T) {
	const want = "b829f78d52c8eb16f4712aebd7a68ddb3c1d888291e686a5818dd77400c1d6cb"
	seed := gperm.State{9}
	for _, workers := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(workers)
		p, err := Prove(seed, 256, stark.DefaultParams)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := proofDigest(p); got != want {
			t.Fatalf("workers=%d: proof digest %s, want %s", workers, got, want)
		}
	}
}
