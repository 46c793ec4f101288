package merkle

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"zkflow/internal/hashk"
)

// refNode is the test oracle for a node: crypto/sha256's chaining value
// after the blocks tag || l || r (the tag block is hashk.NodePrefix ||
// hashk.NodeTag || zero fill), read from its exported state encoding
// ("sha\x03", then h0..h7 big-endian), never finalized.
func refNode(l, r Hash) Hash {
	var tag [64]byte
	tag[0] = hashk.NodePrefix
	copy(tag[1:], hashk.NodeTag)
	h := sha256.New()
	h.Write(tag[:])
	h.Write(l[:])
	h.Write(r[:])
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil || string(state[:4]) != "sha\x03" {
		panic(fmt.Sprintf("crypto/sha256 state encoding %.8x…: %v", state, err))
	}
	return Hash(state[4:36])
}

// refTree is the pre-kernel tree builder (per-level allocations, every
// padding node hashed, every node through the oracle) kept as the
// identity oracle for the arena + padding-table build.
func refTree(leafHashes []Hash) [][]Hash {
	n := len(leafHashes)
	size := 1
	for size < n {
		size <<= 1
	}
	level := make([]Hash, size)
	copy(level, leafHashes)
	for i := n; i < size; i++ {
		level[i] = emptyHash
	}
	levels := [][]Hash{level}
	for len(level) > 1 {
		next := make([]Hash, len(level)/2)
		for i := range next {
			next[i] = refNode(level[2*i], level[2*i+1])
		}
		levels = append(levels, next)
		level = next
	}
	return levels
}

// sameNodes fails the test unless got is node-for-node want.
func sameNodes(t *testing.T, n int, got *Tree, want [][]Hash) {
	t.Helper()
	if len(got.levels) != len(want) {
		t.Fatalf("n=%d: %d levels, want %d", n, len(got.levels), len(want))
	}
	for lvl := range want {
		if len(got.levels[lvl]) != len(want[lvl]) {
			t.Fatalf("n=%d: level %d has %d nodes, want %d", n, lvl, len(got.levels[lvl]), len(want[lvl]))
		}
		for i := range want[lvl] {
			if got.levels[lvl][i] != want[lvl][i] {
				t.Fatalf("n=%d: node (%d,%d) differs", n, lvl, i)
			}
		}
	}
}

func testHashes(n int) []Hash {
	hs := make([]Hash, n)
	for i := range hs {
		hs[i] = sha256.Sum256([]byte{byte(i), byte(i >> 8), byte(i >> 16), 0x7f})
	}
	return hs
}

// TestBlockBuildMatchesReference pins that the block-fused arena build
// with padding-subtree skipping is node-for-node identical to hashing
// every node level by level, serially and on a crew, at the leaf
// counts where the block arithmetic can go wrong: nothing, one leaf,
// either side of one block, either side of a power of two (just above
// one maximizes skipped padding subtrees and all-padding blocks), and
// the exec-trace size of a 1000-record epoch.
func TestBlockBuildMatchesReference(t *testing.T) {
	const block = 1 << blockLog
	for _, n := range []int{0, 1, 2, 3, 5, 100, block - 1, block, block + 1, 1 << 13, 1<<13 + 1, 397_547} {
		hs := testHashes(n)
		want := refTree(hs)
		for _, workers := range []int{1, 3} {
			prev := runtime.GOMAXPROCS(workers)
			got := BuildHashes(hs)
			runtime.GOMAXPROCS(prev)
			sameNodes(t, n, got, want)
			got.Release()
		}
	}
}

// TestBuilderBlocks drives a Builder the way the zkVM seal does —
// blocks filled and reduced out of order, each straight after its own
// fill — and checks the block geometry it reports.
func TestBuilderBlocks(t *testing.T) {
	const block = 1 << blockLog
	for _, n := range []int{0, 7, block, 2*block + 1, 5*block + 9} {
		hs := testHashes(n)
		b := NewBuilder(n)
		covered := 0
		for i := b.Blocks() - 1; i >= 0; i-- {
			first, leaves := b.Leaves(i)
			if first != i*min(block, len(b.t.levels[0])) {
				t.Fatalf("n=%d: block %d starts at leaf %d", n, i, first)
			}
			covered += copy(leaves, hs[min(first, n):])
			b.Reduce(i)
		}
		if covered != n {
			t.Fatalf("n=%d: blocks expose %d real leaves", n, covered)
		}
		sameNodes(t, n, b.Finish(), refTree(hs))
	}
}

// TestPaddingHashTable checks the precomputed padding roots are the
// NodeHash fixpoint of the empty leaf.
func TestPaddingHashTable(t *testing.T) {
	if PaddingHash(0) != emptyHash {
		t.Fatal("PaddingHash(0) is not the empty leaf hash")
	}
	h := emptyHash
	for l := 1; l <= 20; l++ {
		h = NodeHash(h, h)
		if PaddingHash(l) != h {
			t.Fatalf("PaddingHash(%d) diverges from iterated NodeHash", l)
		}
	}
}

// TestPaddingHashKnownAnswer pins the first padding roots to vectors
// computed outside Go (a longhand FIPS 180-4 compression from the node
// IV), so a change to the node definition cannot pass unnoticed.
func TestPaddingHashKnownAnswer(t *testing.T) {
	for l, want := range []string{
		1: "a9fd6908d40fdbe797813ea962dd4a2c4696b57fef1d14ec71126240df4c4f09",
		2: "df2e2a55f2d8f2b270bb5291f2f4c927cd9685e06331047932736f08b75c930b",
		3: "36cb70fb4518b2228948b8a6fd2f6e0f3ce756589749fbf3e113182e579d6512",
	} {
		if l == 0 {
			continue
		}
		if got := PaddingHash(l); hex.EncodeToString(got[:]) != want {
			t.Fatalf("PaddingHash(%d) = %x, want %s", l, got, want)
		}
	}
}

// TestHashZeroAllocs gates the leaf/node kernels: committed-table leaf
// sizes must hash without touching the allocator.
func TestHashZeroAllocs(t *testing.T) {
	data := make([]byte, 97) // salted exec-row leaf size
	var l, r Hash
	if allocs := testing.AllocsPerRun(100, func() { _ = LeafHash(data) }); allocs != 0 {
		t.Errorf("LeafHash allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = NodeHash(l, r) }); allocs != 0 {
		t.Errorf("NodeHash allocates %v per run, want 0", allocs)
	}
}

// TestBuildHashesConstantAllocs gates the arena build: a whole tree
// costs a fixed handful of allocations (tree, level index, builder,
// the two closures handed to the crew, at most one arena when the pool
// has none), not O(leaves), O(levels) or O(blocks): sixteen times the
// leaves may cost one allocation more (an arena pool miss), not 60.
func TestBuildHashesConstantAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var small, large float64
	for _, c := range []struct {
		n      int
		allocs *float64
	}{{4096, &small}, {1 << 16, &large}} {
		hs := testHashes(c.n)
		*c.allocs = testing.AllocsPerRun(10, func() { BuildHashes(hs).Release() })
	}
	if small > 6 || large > small+1 {
		t.Fatalf("serial build allocates %v per run at 4096 leaves and %v at 65536, want <= 6 and no growth", small, large)
	}
}

// TestReleasedArenaReuse pins the Release contract: a build on a
// dirty recycled arena (larger previous tree, arbitrary stale nodes)
// is node-for-node identical to a fresh build, across sizes that
// exercise the padding-fill, all-padding-block and real-node paths.
func TestReleasedArenaReuse(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Seed the pool with a large dirty arena.
	big := make([]Hash, 1<<14)
	for i := range big {
		big[i] = sha256.Sum256([]byte{byte(i), byte(i >> 8), 0xee})
	}
	BuildHashes(big).Release()

	for _, n := range []int{1, 2, 5, 100, 129, 1000, 1025, 1<<12 + 1, 1<<13 + 3} {
		hs := testHashes(n)
		got := BuildHashes(hs) // likely reuses the dirty arena
		sameNodes(t, n, got, refTree(hs))
		got.Release()
		got.Release() // double release is a no-op
	}
}

func TestHashStringIsHex(t *testing.T) {
	var h Hash
	for i := range h {
		h[i] = byte(i)
	}
	if got, want := h.String(), "0001020304050607"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%q", "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"); string(b) != want {
		t.Fatalf("MarshalJSON = %s, want %s", b, want)
	}
	var back Hash
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatal("marshal/unmarshal round trip changed the hash")
	}
}

func BenchmarkBuildHashes(b *testing.B) {
	for _, n := range []int{4096, 1 << 15} {
		hs := make([]Hash, n)
		for i := range hs {
			hs[i] = sha256.Sum256([]byte{byte(i), byte(i >> 8)})
		}
		b.Run(fmt.Sprintf("leaves=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = BuildHashes(hs)
			}
		})
	}
}
