package zkvm

import (
	"testing"

	"zkflow/internal/field"
	"zkflow/internal/merkle"
)

// execTable is a committed exec-row table over synthetic rows.
func execTable(seed *[32]byte, n int) *table {
	rows := make([]Row, n)
	for i := range rows {
		rows[i].PC = uint32(i)
		rows[i].Regs[1] = uint32(i * 3)
	}
	return rowTable(newSalter(seed), rows)
}

// TestCommitTablesConstantAllocs is the allocation-regression gate for
// the block-fused table commit: committing a whole table costs a small
// constant number of allocations (tree, level index, builder, the
// crew's closure, at most one arena when the pool has none) — not
// O(rows) and not O(blocks): eight times the rows, eight times the
// blocks, may cost one allocation more (an arena pool miss), not 28.
// Before the fused pipeline this path allocated one payload buffer
// plus one salted concat buffer per row.
func TestCommitTablesConstantAllocs(t *testing.T) {
	seed := &[32]byte{42}
	var small, large float64
	for _, c := range []struct {
		n      int
		allocs *float64
	}{{4096, &small}, {1 << 15, &large}} {
		tab := execTable(seed, c.n)
		*c.allocs = testing.AllocsPerRun(5, func() {
			commitTables(1, tab)
			tab.tree.Release()
		})
	}
	if small > 8 || large > small+1 {
		t.Fatalf("serial commit allocates %v per run at 4096 rows and %v at 32768, want <= 8 and no growth", small, large)
	}
}

// TestCommitBlockZeroAllocs gates the per-leaf hot path: salting,
// encoding, leaf-hashing and reducing a block never touches the
// allocator.
func TestCommitBlockZeroAllocs(t *testing.T) {
	tab := execTable(&[32]byte{7}, 3000)
	tab.builder = merkle.NewBuilder(tab.n)
	if allocs := testing.AllocsPerRun(20, func() { tab.commitBlock(1) }); allocs != 0 {
		t.Fatalf("block commit allocates %v per run, want 0", allocs)
	}
}

// TestCommitTablesMatchUnfused pins what the crew commits: at every
// width, and with several tables sharing one crew, each tree is
// leaf-for-leaf the unfused formulation — one deriveSalt, one encode
// and one salted leaf hash per row — over the plain builder, across
// sizes on either side of a block and of a power of two.
func TestCommitTablesMatchUnfused(t *testing.T) {
	seed := &[32]byte{42}
	for _, width := range []int{1, 2, 3, 7} {
		var tabs []*table
		for _, n := range []int{0, 1, 1023, 1024, 1025, 4096, 4097, 10_000} {
			tabs = append(tabs, execTable(seed, n))
		}
		commitTables(width, tabs...)
		for _, tab := range tabs {
			hashes := make([]merkle.Hash, tab.n)
			for i := range hashes {
				row := make([]byte, rowBytes)
				tab.encode(i, row)
				hashes[i] = saltedLeafHash(tab.salts.deriveSalt(treeExec, i), row)
				if got, _ := tab.tree.Leaf(i); got != hashes[i] {
					t.Fatalf("width %d, %d rows: leaf %d differs from the unfused leaf", width, tab.n, i)
				}
			}
			want := merkle.BuildHashesParallel(hashes, 1)
			if tab.tree.Root() != want.Root() {
				t.Fatalf("width %d, %d rows: fused commit root differs from unfused reference", width, tab.n)
			}
			tab.tree.Release()
		}
	}
}

// BenchmarkCommitBlock times the seal's unit of work — salt, encode,
// leaf-hash and reduce one 1024-leaf block — for the widest committed
// leaf (an exec row, two compressions) and the narrowest (a running
// product, one). ns/leaf covers the leaf and its share of the block's
// internal nodes.
func BenchmarkCommitBlock(b *testing.B) {
	const n = 1 << 15
	prods := make([]field.Elem, n)
	for i := range prods {
		prods[i] = field.New(uint64(i) * 0x9e3779b97f4a7c15)
	}
	salts := newSalter(&[32]byte{7})
	for _, c := range []struct {
		name string
		tab  *table
	}{{"exec-rows", execTable(&[32]byte{7}, n)}, {"products", prodTable(salts, treeProdProg, prods)}} {
		b.Run(c.name, func(b *testing.B) {
			c.tab.builder = merkle.NewBuilder(n)
			blocks := c.tab.builder.Blocks()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.tab.commitBlock(i % blocks)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n/blocks), "ns/leaf")
		})
	}
}
