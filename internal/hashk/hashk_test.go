package hashk

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

type digest = [32]byte

// refNode is the pre-kernel formulation node hashing must match.
func refNode(l, r digest) digest {
	h := sha256.New()
	h.Write([]byte{NodePrefix})
	h.Write(l[:])
	h.Write(r[:])
	var out digest
	h.Sum(out[:0])
	return out
}

func refLeaf(parts ...[]byte) digest {
	h := sha256.New()
	h.Write([]byte{LeafPrefix})
	for _, p := range parts {
		h.Write(p)
	}
	var out digest
	h.Sum(out[:0])
	return out
}

func mkDigests(n int) []digest {
	out := make([]digest, n)
	for i := range out {
		out[i] = sha256.Sum256([]byte{byte(i), byte(i >> 8)})
	}
	return out
}

func TestNodeMatchesReference(t *testing.T) {
	d := mkDigests(4)
	if got, want := Node(d[0], d[1]), refNode(d[0], d[1]); got != want {
		t.Fatalf("Node = %x, want %x", got, want)
	}
}

func TestHashLevelMatchesNode(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 1024} {
		src := mkDigests(2 * n)
		dst := make([]digest, n)
		HashLevel(dst, src)
		for i := range dst {
			if want := refNode(src[2*i], src[2*i+1]); dst[i] != want {
				t.Fatalf("n=%d: level node %d = %x, want %x", n, i, dst[i], want)
			}
		}
	}
}

func TestHashLevelRejectsRaggedInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged HashLevel did not panic")
		}
	}()
	HashLevel(make([]digest, 2), make([]digest, 3))
}

func TestLeafVariantsMatchReference(t *testing.T) {
	a := bytes.Repeat([]byte{0xaa}, 16)
	b := bytes.Repeat([]byte{0xbb}, 80)
	if got, want := Leaf[digest](b), refLeaf(b); got != want {
		t.Fatalf("Leaf = %x, want %x", got, want)
	}
	if got, want := Leaf2[digest](a, b), refLeaf(a, b); got != want {
		t.Fatalf("Leaf2 = %x, want %x", got, want)
	}
	// Empty payload and empty parts.
	if got, want := Leaf[digest](nil), refLeaf(nil); got != want {
		t.Fatalf("Leaf(nil) = %x, want %x", got, want)
	}
	if got, want := Leaf2[digest](nil, b), refLeaf(nil, b); got != want {
		t.Fatalf("Leaf2(nil,b) = %x, want %x", got, want)
	}
}

// TestLeafSlowPathMatchesFastPath pins the fast/slow boundary: a
// payload just under ScratchBytes (stack path) and the same bytes fed
// through the streaming path hash identically, and oversized payloads
// agree with the reference.
func TestLeafSlowPathMatchesFastPath(t *testing.T) {
	for _, n := range []int{ScratchBytes - 2, ScratchBytes - 1, ScratchBytes, 4 * ScratchBytes} {
		data := bytes.Repeat([]byte{0x5e}, n)
		if got, want := Leaf[digest](data), refLeaf(data); got != want {
			t.Fatalf("len %d: Leaf = %x, want %x", n, got, want)
		}
		half := n / 2
		if got, want := Leaf2[digest](data[:half], data[half:]), refLeaf(data); got != want {
			t.Fatalf("len %d: Leaf2 split = %x, want %x", n, got, want)
		}
	}
}

// TestKernelZeroAllocs is the allocation-regression gate for the
// kernel itself: node hashing, whole-level hashing, and the leaf fast
// paths must not touch the allocator.
func TestKernelZeroAllocs(t *testing.T) {
	d := mkDigests(256)
	dst := make([]digest, 128)
	salt := make([]byte, 16)
	row := make([]byte, 80)
	rows := make([]byte, 4*80) // the widest committed leaf: a block of four exec rows
	cases := []struct {
		name string
		fn   func()
	}{
		{"Node", func() { _ = Node(d[0], d[1]) }},
		{"HashLevel", func() { HashLevel(dst, d) }},
		{"Leaf", func() { _ = Leaf[digest](row) }},
		{"Leaf2", func() { _ = Leaf2[digest](salt, row) }},
		{"Leaf2/block", func() { _ = Leaf2[digest](salt, rows) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %v per run, want 0", tc.name, allocs)
		}
	}
}

func BenchmarkHashLevel(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		src := mkDigests(2 * n)
		dst := make([]digest, n)
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			b.SetBytes(int64(64 * n))
			for i := 0; i < b.N; i++ {
				HashLevel(dst, src)
			}
		})
	}
}

func BenchmarkLeaf2(b *testing.B) {
	salt := make([]byte, 16)
	row := make([]byte, 80)
	for i := 0; i < b.N; i++ {
		_ = Leaf2[digest](salt, row)
	}
}
