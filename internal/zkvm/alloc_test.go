package zkvm

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"zkflow/internal/field"
	"zkflow/internal/merkle"
)

// loopProgram reads a count and runs that many turns of a five-step
// loop — a load, an add, a store, an increment, a branch — so any number
// of trace rows can be had from it, every leaf of them with a witness
// word that is not zero.
var loopProgram = sync.OnceValue(func() *Program {
	return asm(func(a *Assembler) {
		a.ReadInput(R3)
		a.Li(R2, 0)
		a.Label("loop")
		a.Lw(R4, R0, 100)
		a.Add(R4, R4, R2)
		a.Sw(R4, R0, 100)
		a.Addi(R2, R2, 1)
		a.Bltu(R2, R3, "loop")
		a.HaltCode(0)
	})
})

// execTable is an exec-row table over the first n rows of a real trace:
// an exec leaf commits to its rows through the program that derives
// them, so made-up rows would not be a leaf of anything.
func execTable(seed *[32]byte, n int) *table {
	ex, err := Execute(loopProgram(), []uint32{uint32(n/5 + 1)}, ExecOptions{})
	if err != nil {
		panic(err)
	}
	return rowTable(newSalter(seed), ex.Program, ex.Rows[:n])
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
			commitTables(1, nil, tab)
			tab.tree.Release()
		})
	}
	if small > 8 || large > small+1 {
		t.Fatalf("serial commit allocates %v per run at 4096 rows and %v at 32768, want <= 8 and no growth", small, large)
	}
}

// TestCommitBlockZeroAllocs gates the per-leaf hot path: salting,
// encoding, leaf-hashing and reducing a block never touches the
// allocator — the scratch that holds a whole leaf (at most an exec
// leaf's 109 bytes, salted) stays on commitBlock's stack.
func TestCommitBlockZeroAllocs(t *testing.T) {
	tab := execTable(&[32]byte{7}, 3000*leafRecords)
	tab.builder = merkle.NewBuilder(tab.leaves())
	if allocs := testing.AllocsPerRun(20, func() { tab.commitBlock(1) }); allocs != 0 {
		t.Fatalf("block commit allocates %v per run, want 0", allocs)
	}
}

// recordBytes is record i of a table, encoded on its own.
func recordBytes(tab *table, i int) []byte {
	b := make([]byte, tab.recBytes)
	switch tab.label {
	case treeExec:
		encodeRowInto(b, &tab.rows[i])
	case treeMem:
		encodeMemEntryInto(b, &tab.mem[i])
	case treeLogProd, treeFinalProd, treeInitProd:
		encodeProdInto(b, tab.prods[i])
	case treeImage:
		encodeImageRecordInto(b, tab.img[i])
	}
	return b
}

// unfusedLeaf is leaf j of a table written out longhand: one
// deriveSalt, one encode per record — of an exec leaf's rows after the
// first, the witness word alone — and one salted leaf hash.
func unfusedLeaf(tab *table, j int) merkle.Hash {
	lo := j * leafRecords
	payload := recordBytes(tab, lo)
	for i := lo + 1; i < min(lo+leafRecords, tab.n); i++ {
		if tab.label == treeExec {
			payload = binary.LittleEndian.AppendUint32(payload, witnessWord(tab.prog, &tab.rows[i-1], &tab.rows[i]))
		} else {
			payload = append(payload, recordBytes(tab, i)...)
		}
	}
	return saltedLeafHash(tab.salts.deriveSalt(tab.label, j), payload)
}

// shapeTables is one table of each committed record shape over n
// synthetic records.
func shapeTables(seed *[32]byte, n int) map[string]*table {
	salts := newSalter(seed)
	mem := make([]MemEntry, n)
	prods := make([]field.Elem, n)
	img := make([]imageRecord, n)
	for i := range mem {
		mem[i] = MemEntry{Addr: uint32(i % 61), Val: uint32(i * 7), PrevVal: uint32(i * 5), PrevTs: uint32(i / 2), IsWrite: i%3 == 0}
		prods[i] = field.New(uint64(i) * 0x9e3779b97f4a7c15)
		img[i] = imageRecord{Addr: uint32(i), Val: uint32(i)*2654435761 + 1, Ts: uint32(i * 3)}
	}
	return map[string]*table{
		"exec":  execTable(seed, n),
		"mem":   memTable(salts, mem),
		"prod":  prodTable(salts, treeLogProd, prods),
		"image": imageTable(salts, img),
	}
}

// TestCommitTablesMatchUnfused pins what the crew commits: at every
// width, and with several tables sharing one crew, each tree is
// leaf-for-leaf the unfused formulation — ceil(n/4) leaves, leaf j the
// salted hash of records 4j..4j+3 (of exec row 4j and the three witness
// words after it), the last one short — over the plain
// builder, across record counts on either side of a leaf, of a builder
// block and of a power of two, for every record shape.
func TestCommitTablesMatchUnfused(t *testing.T) {
	seed := &[32]byte{42}
	for _, width := range []int{1, 2, 3, 7} {
		var tabs []*table
		for _, n := range []int{0, 1, 3, 4, 5, 4095, 4096, 4097, 4100, 16384, 16387, 40_000} {
			tabs = append(tabs, execTable(seed, n))
		}
		for _, tab := range shapeTables(seed, 4099) {
			tabs = append(tabs, tab)
		}
		commitTables(width, nil, tabs...)
		for _, tab := range tabs {
			if got, want := tab.tree.Len(), (tab.n+leafRecords-1)/leafRecords; got != want {
				t.Fatalf("width %d, %d records: %d leaves, want %d", width, tab.n, got, want)
			}
			hashes := make([]merkle.Hash, tab.tree.Len())
			for j := range hashes {
				hashes[j] = unfusedLeaf(tab, j)
				if got, _ := tab.tree.Leaf(j); got != hashes[j] {
					t.Fatalf("width %d, label %d, %d records: leaf %d differs from the unfused leaf", width, tab.label, tab.n, j)
				}
			}
			want := merkle.BuildHashes(hashes)
			if tab.tree.Root() != want.Root() {
				t.Fatalf("width %d, %d records: fused commit root differs from unfused reference", width, tab.n)
			}
			tab.tree.Release()
		}
	}
}

// TestCommitTablesLeadTask pins the lead task's hand-off: a table
// whose records the lead task supplies, its blocks waiting on ready,
// commits to the same tree as those records present from the start, at
// every width and beside a table that does not wait. The lead sleeps
// first, so at width > 1 the other workers reach the waiting blocks
// before the records are there.
func TestCommitTablesLeadTask(t *testing.T) {
	seed := &[32]byte{42}
	mem := shapeTables(seed, 40_000)["mem"]
	commitTables(1, nil, mem)
	want := mem.tree.Root()
	for _, width := range []int{1, 2, 3, 7} {
		ready := make(chan struct{})
		late := salted(&table{salts: mem.salts, label: mem.label, n: mem.n, recBytes: memBytes, ready: ready})
		exec := execTable(seed, 20_000)
		commitTables(width, func() {
			time.Sleep(time.Millisecond)
			late.mem = mem.mem
			close(ready)
		}, exec, late)
		if got := late.tree.Root(); got != want {
			t.Fatalf("width %d: the table filled by the lead task commits to a different root", width)
		}
		late.release()
		exec.release()
	}
	mem.release()
}

// sha256Blocks is the number of compression-function calls SHA-256
// spends on a message of n bytes (padding: one 0x80 byte and the
// 8-byte length).
func sha256Blocks(n int) int { return (n + 9 + 63) / 64 }

// BenchmarkCommitBlock times the seal's unit of work — salt, encode,
// leaf-hash and reduce one 1024-leaf (4096-record) builder block — for
// each committed record shape, and reports next to ns/record what the
// format fixes: SHA-256 compressions and bytes hashed per record,
// leaves plus the block's internal nodes (one 64-byte block from the
// node IV, one compression each), from the length of the message the
// leaf really hashes: an exec leaf is 109 bytes, two compressions for
// four rows (EXPERIMENTS.md E24 has the counts of the retired leaf
// layouts, E41 those of the two-compression node).
func BenchmarkCommitBlock(b *testing.B) {
	const n = 1 << 15
	tabs := shapeTables(&[32]byte{7}, n)
	for _, name := range []string{"exec", "mem", "prod", "image"} {
		tab := tabs[name]
		b.Run(name, func(b *testing.B) {
			tab.builder = merkle.NewBuilder(tab.leaves())
			blocks := tab.builder.Blocks()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.commitBlock(i % blocks)
			}
			b.StopTimer()
			leaves := tab.leaves() / blocks
			recs := float64(leaves * leafRecords)
			var scratch [maxLeafBytes]byte
			leafMsg, nodes := 1+saltBytes+tab.encodeLeaf(0, scratch[:]), leaves-1
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*recs), "ns/record")
			b.ReportMetric(float64(leaves*sha256Blocks(leafMsg)+nodes)/recs, "compressions/record")
			b.ReportMetric(float64(leaves*leafMsg+nodes*64)/recs, "hashedB/record")
		})
	}
}
