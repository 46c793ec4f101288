package merkle

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"zkflow/internal/par"
)

// build constructs a tree over raw leaves (hashed with LeafHash) across
// par.Workers() goroutines.
func build(leaves [][]byte) *Tree {
	return BuildLeaves(len(leaves), func(hashes []Hash) {
		par.ForChunks(par.Workers(), len(leaves), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hashes[i] = LeafHash(leaves[i])
			}
		})
	})
}

func leaves(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("leaf-%d", i))
	}
	return out
}

func TestBuildAndVerifyAllLeaves(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 33, 100} {
		tree := build(leaves(n))
		if tree.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tree.Len())
		}
		root := tree.Root()
		for i := 0; i < n; i++ {
			p, err := tree.Prove(i)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			lh, _ := tree.Leaf(i)
			if !Verify(root, lh, p) {
				t.Fatalf("n=%d i=%d: valid proof rejected", n, i)
			}
		}
	}
}

func TestVerifyRejectsWrongLeaf(t *testing.T) {
	tree := build(leaves(8))
	p, _ := tree.Prove(3)
	if Verify(tree.Root(), LeafHash([]byte("evil")), p) {
		t.Fatal("forged leaf accepted")
	}
}

func TestVerifyRejectsWrongIndex(t *testing.T) {
	tree := build(leaves(8))
	p, _ := tree.Prove(3)
	lh, _ := tree.Leaf(3)
	p.Index = 5
	if Verify(tree.Root(), lh, p) {
		t.Fatal("proof valid under wrong index")
	}
}

func TestVerifyRejectsTamperedPath(t *testing.T) {
	tree := build(leaves(8))
	p, _ := tree.Prove(3)
	lh, _ := tree.Leaf(3)
	p.Path[1][0] ^= 1
	if Verify(tree.Root(), lh, p) {
		t.Fatal("tampered path accepted")
	}
}

func TestVerifyRejectsNegativeIndex(t *testing.T) {
	tree := build(leaves(4))
	p, _ := tree.Prove(0)
	lh, _ := tree.Leaf(0)
	p.Index = -1
	if Verify(tree.Root(), lh, p) {
		t.Fatal("negative index accepted")
	}
}

func TestProveOutOfRange(t *testing.T) {
	tree := build(leaves(4))
	if _, err := tree.Prove(4); err != ErrIndexOutOfRange {
		t.Fatalf("got %v", err)
	}
	if _, err := tree.Prove(-1); err != ErrIndexOutOfRange {
		t.Fatalf("got %v", err)
	}
}

func TestLeafDomainSeparation(t *testing.T) {
	// A leaf equal to the concatenation of two node children must not
	// collide with the internal node.
	l, r := LeafHash([]byte("a")), LeafHash([]byte("b"))
	node := NodeHash(l, r)
	var concat []byte
	concat = append(concat, l[:]...)
	concat = append(concat, r[:]...)
	if LeafHash(concat) == node {
		t.Fatal("leaf/node domain collision")
	}
}

func TestRootChangesWithAnyLeaf(t *testing.T) {
	base := build(leaves(16)).Root()
	for i := 0; i < 16; i++ {
		ls := leaves(16)
		ls[i] = append(ls[i], '!')
		if build(ls).Root() == base {
			t.Fatalf("leaf %d does not affect root", i)
		}
	}
}

func TestUpdateMatchesRebuild(t *testing.T) {
	ls := leaves(13)
	tree := build(ls)
	ls[7] = []byte("replacement")
	want := build(ls).Root()
	if err := tree.Update(7, LeafHash(ls[7])); err != nil {
		t.Fatal(err)
	}
	if tree.Root() != want {
		t.Fatal("incremental update root differs from rebuild")
	}
	// Proofs must remain valid after update.
	p, _ := tree.Prove(7)
	if !Verify(tree.Root(), LeafHash(ls[7]), p) {
		t.Fatal("proof invalid after update")
	}
}

func TestUpdateOutOfRange(t *testing.T) {
	tree := build(leaves(4))
	if err := tree.Update(9, Hash{}); err != ErrIndexOutOfRange {
		t.Fatalf("got %v", err)
	}
}

func TestEmptyTree(t *testing.T) {
	tree := BuildHashes(nil)
	if tree.Len() != 0 {
		t.Fatal("empty tree has leaves")
	}
	_ = tree.Root() // must not panic
	if _, err := tree.Prove(0); err == nil {
		t.Fatal("proof on empty tree succeeded")
	}
}

func TestProofSize(t *testing.T) {
	tree := build(leaves(1024))
	p, _ := tree.Prove(0)
	if p.Size() != 8+32*10 {
		t.Fatalf("proof size = %d", p.Size())
	}
}

func TestQuickRandomTrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		ls := make([][]byte, n)
		for i := range ls {
			ls[i] = make([]byte, rng.Intn(40))
			rng.Read(ls[i])
		}
		tree := build(ls)
		i := rng.Intn(n)
		p, err := tree.Prove(i)
		if err != nil {
			return false
		}
		return Verify(tree.Root(), LeafHash(ls[i]), p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBuild1024(b *testing.B) {
	ls := leaves(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(ls)
	}
}

func BenchmarkProveVerify(b *testing.B) {
	tree := build(leaves(4096))
	lh, _ := tree.Leaf(123)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := tree.Prove(123)
		if !Verify(tree.Root(), lh, p) {
			b.Fatal("verify failed")
		}
	}
}

// TestParallelBuildMatchesSerial asserts the block crew produces
// byte-identical trees at any GOMAXPROCS: every level, every node,
// every proof.
func TestParallelBuildMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{0, 1, 2, 3, 255, 1<<blockLog - 1, 1 << blockLog, 1<<blockLog + 1, 3<<blockLog + 7} {
		ls := leaves(n)
		runtime.GOMAXPROCS(1)
		serial := build(ls)
		for _, workers := range []int{2, 3, 8, 64} {
			runtime.GOMAXPROCS(workers)
			par := build(ls)
			if serial.Root() != par.Root() {
				t.Fatalf("n=%d workers=%d: root mismatch", n, workers)
			}
			if len(serial.levels) != len(par.levels) {
				t.Fatalf("n=%d workers=%d: level count mismatch", n, workers)
			}
			for lvl := range serial.levels {
				for i := range serial.levels[lvl] {
					if serial.levels[lvl][i] != par.levels[lvl][i] {
						t.Fatalf("n=%d workers=%d: node (%d,%d) differs", n, workers, lvl, i)
					}
				}
			}
		}
	}
}

// BenchmarkBuildParallel builds a 32K-leaf tree; compare widths with
// -cpu 1,4.
func BenchmarkBuildParallel(b *testing.B) {
	ls := leaves(1 << 15)
	for i := 0; i < b.N; i++ {
		build(ls)
	}
}
