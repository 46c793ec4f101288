package vmtree

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"zkflow/internal/merkle"
)

func entries(n int) [][]uint32 {
	out := make([][]uint32, n)
	for i := range out {
		out[i] = []uint32{uint32(i), uint32(i * 7), 0xdead, uint32(n)}
	}
	return out
}

func TestDigestBytesRoundTrip(t *testing.T) {
	d := HashWords([]uint32{1, 2, 3})
	if FromBytes(d.Bytes()) != d {
		t.Fatal("byte conversion round trip failed")
	}
}

func TestRootEmptyIsZero(t *testing.T) {
	if Root(nil) != Zero {
		t.Fatal("empty root not zero")
	}
}

func TestRootSingleLeaf(t *testing.T) {
	es := entries(1)
	if Root(es) != HashWords(es[0]) {
		t.Fatal("single-leaf root should be the leaf digest")
	}
}

func TestRootSensitivity(t *testing.T) {
	es := entries(10)
	base := Root(es)
	for i := range es {
		mod := entries(10)
		mod[i][0] ^= 1
		if Root(mod) == base {
			t.Fatalf("leaf %d does not affect root", i)
		}
	}
	if Root(entries(11)) == base {
		t.Fatal("leaf count does not affect root")
	}
}

func TestPaddingIsZeroDigest(t *testing.T) {
	// A 3-leaf tree pads with Zero: root = H(H(l0,l1), H(l2, Zero)).
	es := entries(3)
	d := LeafDigests(es)
	want := Node(Node(d[0], d[1]), Node(d[2], Zero))
	if RootFromDigests(d) != want {
		t.Fatal("padding convention mismatch")
	}
}

func TestHashWordsMatchesSysHashConvention(t *testing.T) {
	// HashWords must equal SHA-256 over little-endian packed words —
	// the exact SysHash precompile semantics the guests rely on.
	words := []uint32{0x01020304, 0xa0b0c0d0}
	var buf [8]byte
	buf[0], buf[1], buf[2], buf[3] = 0x04, 0x03, 0x02, 0x01
	buf[4], buf[5], buf[6], buf[7] = 0xd0, 0xc0, 0xb0, 0xa0
	want := FromBytes(merkle.Hash(sum256(buf[:])))
	if HashWords(words) != want {
		t.Fatal("word packing convention mismatch")
	}
}

func sum256(b []byte) [32]byte {
	return sha256.Sum256(b)
}

// TestHashWordsMatchesPacked pins the stack fast path against the
// reference packing for sizes straddling the scratch boundary, and
// that the hot hashing paths stay off the allocator.
func TestHashWordsMatchesPacked(t *testing.T) {
	for _, n := range []int{0, 1, 7, hashScratchWords, hashScratchWords + 1, 4 * hashScratchWords} {
		words := make([]uint32, n)
		for i := range words {
			words[i] = uint32(i * 2654435761)
		}
		buf := make([]byte, 4*n)
		for i, w := range words {
			binary.LittleEndian.PutUint32(buf[4*i:], w)
		}
		if HashWords(words) != FromBytes(sha256.Sum256(buf)) {
			t.Fatalf("HashWords(%d words) diverges from packed reference", n)
		}
	}
}

func TestNodeAndHashWordsZeroAllocs(t *testing.T) {
	l := HashWords([]uint32{1})
	r := HashWords([]uint32{2})
	words := make([]uint32, 16)
	if allocs := testing.AllocsPerRun(100, func() { _ = Node(l, r) }); allocs != 0 {
		t.Errorf("Node allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = HashWords(words) }); allocs != 0 {
		t.Errorf("HashWords allocates %v per run, want 0", allocs)
	}
}
