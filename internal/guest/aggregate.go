// Package guest contains the zkVM guest programs of the system — the
// in-VM counterparts of the paper's RISC Zero guests — together with
// the host-side code that builds their input tapes and parses their
// journals.
//
// The aggregation guest implements Algorithm 1 of the paper: it
// recomputes each router's RLog hash and aborts on any mismatch with the
// published commitment, authenticates the previous CLog against the
// previous Merkle root by rebuilding the tree in-VM, merge-joins the
// new records into the CLog under the canonical policy, rebuilds the
// new Merkle tree in-VM (the dominant cost, as the paper reports), and
// journals the public outputs: the chained previous-journal hash, the
// old and new roots, the router commitments, and the new leaf digests.
//
// What a guest costs the prover is its trace rows and, three and a half
// times dearer each, its memory-log entries (EXPERIMENTS.md E25), so
// the guests move no word they need not. Every fixed-width move and
// compare is straight-line code at immediate offsets. The aggregation
// guest merges by index: it reads the host's sort permutation one index
// at a time and folds record perm[i] from where the ingest left it,
// into an entry held in registers until it is complete; previous
// entries are hashed where they lie. The query guests hash, filter and
// aggregate each entry as it streams in, the predicate in registers.
package guest

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"zkflow/internal/clog"
	"zkflow/internal/netflow"
	"zkflow/internal/vmtree"
	"zkflow/internal/zkvm"
)

// Guest abort codes (zkVM exit codes; 0 is success).
const (
	// AbortCommitMismatch: a router's RLog hash does not match its
	// published commitment (the tamper signal of §5).
	AbortCommitMismatch = 1
	// AbortCountMismatch: per-router record counts do not sum to the
	// declared total.
	AbortCountMismatch = 2
	// AbortBadPermutation: the host's sort hint is not the permutation
	// that puts the records in (key, index) order.
	AbortBadPermutation = 3
	// AbortPrevUnsorted: the previous CLog is not strictly key-sorted.
	AbortPrevUnsorted = 4
	// AbortPrevRootMismatch: the previous CLog does not hash to the
	// trusted previous root.
	AbortPrevRootMismatch = 5
)

// Guest memory map (word addresses). Low memory holds scratch and
// globals; the bulk regions follow recBase in tape order — records,
// previous entries, previous leaf digests, new leaf digests — and the
// guest lays them out itself once it knows the input sizes. Records and
// previous entries are read where they land: nothing is copied, and the
// entry being built lives in registers until it is hashed from memOpen.
const (
	memCommit   = 64  // 8w: current router's claimed commitment
	memDigest   = 72  // 8w: SysHash output buffer
	memPrevRoot = 120 // 8w: claimed previous CLog root
	memOpen     = 136 // 13w: the open entry, stored to be hashed

	gM        = 100 // total record count
	gPrev     = 101 // previous CLog entry count
	gNR       = 102 // number of routers
	gBasePrev = 103
	gBaseDig1 = 104 // previous leaf digests; also the end of the previous entries
	gBaseDig2 = 105 // new leaf digests
	gPrevCur  = 106 // merge: the next previous entry not yet passed
	gDigCur   = 107 // merge: the next new leaf digest

	recBase = 4096
)

const (
	recW   = netflow.RecordWords
	entryW = clog.EntryWords
	keyW   = netflow.KeyWords
)

// Registers of the merge. The open entry's key and its words 4..10 stay
// in registers across the records the entry absorbs; its jitter maximum
// and count, which no register is left for, stay in memOpen.
const (
	rKey  = zkvm.R4  // r4..r7
	rAgg  = zkvm.R8  // r8..r14: entry words 4..10
	rLeft = zkvm.R15 // records not yet absorbed
)

var (
	aggOnce    sync.Once
	aggProg    *zkvm.Program
	aggRegions []zkvm.Region
)

// AggregationProgram returns the (memoised) aggregation guest.
func AggregationProgram() *zkvm.Program {
	aggOnce.Do(func() {
		aggProg, aggRegions = buildAggregation()
	})
	return aggProg
}

// AggregationRegions returns the guest's labelled phase regions for
// cycle profiling (paper §6: "profiling with RISC Zero indicates the
// majority of this overhead stems from Merkle tree updates performed
// within the zkVM" — zkvm.Profile reproduces that analysis here).
func AggregationRegions() []zkvm.Region {
	AggregationProgram()
	return aggRegions
}

// emitRead reads n input words into mem[base+off...]. Straight-line,
// like every fixed-width move below: a counted loop spends three rows
// per word on its counter, branch and address.
func emitRead(a *zkvm.Assembler, base int, off, n uint32) {
	for k := uint32(0); k < n; k++ {
		a.Ecall(zkvm.SysRead)
		a.Sw(zkvm.R1, base, off+k)
	}
}

// emitJournal journals the n words at mem[base+off...].
func emitJournal(a *zkvm.Assembler, base int, off, n uint32) {
	for k := uint32(0); k < n; k++ {
		a.Lw(zkvm.R1, base, off+k)
		a.Ecall(zkvm.SysJournal)
	}
}

// emitCmp8 branches to ne unless the digests at mem[baseA+offA...] and
// mem[baseB+offB...] are equal. Scratch: r2, r3.
func emitCmp8(a *zkvm.Assembler, baseA int, offA uint32, baseB int, offB uint32, ne string) {
	for k := uint32(0); k < 8; k++ {
		a.Lw(zkvm.R2, baseA, offA+k)
		a.Lw(zkvm.R3, baseB, offB+k)
		a.Bne(zkvm.R2, zkvm.R3, ne)
	}
}

// emitReduce appends reduce(r4 = digests, r5 = count), which folds the
// leaf digests at r4 in place to the root at r4[0..8) under the vmtree
// convention: every level padded to a power of two with zero digests.
// Only pairs that hold a real node are hashed; where a level is odd,
// the missing sibling is the root of an all-padding subtree, a constant
// per level that reduce.zpad writes into the slot after the last node
// (so the region is count+1 digests long). Preserves r4 and r8-r14.
func emitReduce(a *zkvm.Assembler) {
	const padW = 2*8 + 1 // one reduce.zpad stub
	a.Label("reduce.zpad")
	zpad, z := a.PC(), vmtree.Zero
	for level := 0; level < 32; level++ {
		for k, w := range z {
			a.Li(zkvm.R2, w)
			a.Sw(zkvm.R2, zkvm.R7, uint32(k))
		}
		a.J("reduce.padded")
		z = vmtree.Node(z, z)
	}

	a.Label("reduce")
	a.Li(zkvm.R6, 0) // level * padW
	a.Label("reduce.level")
	a.Sltiu(zkvm.R7, zkvm.R5, 2)
	a.Bne(zkvm.R7, zkvm.R0, "reduce.ret")
	a.Andi(zkvm.R7, zkvm.R5, 1)
	a.Beq(zkvm.R7, zkvm.R0, "reduce.pairs")
	a.Slli(zkvm.R7, zkvm.R5, 3)
	a.Add(zkvm.R7, zkvm.R7, zkvm.R4)
	a.Jalr(zkvm.R0, zkvm.R6, uint32(zpad))
	a.Label("reduce.padded")
	a.Addi(zkvm.R5, zkvm.R5, 1)
	a.Label("reduce.pairs")
	a.Srli(zkvm.R5, zkvm.R5, 1)
	a.Mov(zkvm.R1, zkvm.R4)
	a.Li(zkvm.R2, 16)
	a.Mov(zkvm.R3, zkvm.R4)
	a.Slli(zkvm.R7, zkvm.R5, 3)
	a.Add(zkvm.R7, zkvm.R7, zkvm.R4) // end of the level being written
	a.Label("reduce.pair")
	a.Ecall(zkvm.SysHash)
	a.Addi(zkvm.R1, zkvm.R1, 16)
	a.Addi(zkvm.R3, zkvm.R3, 8)
	a.Bne(zkvm.R3, zkvm.R7, "reduce.pair")
	a.Addi(zkvm.R6, zkvm.R6, padW)
	a.J("reduce.level")
	a.Label("reduce.ret")
	a.Ret()
}

// emitNextRecord reads the next index of the sort permutation and
// leaves that record's offset from recBase in r1. Scratch: r2.
func emitNextRecord(a *zkvm.Assembler) {
	a.Ecall(zkvm.SysRead)
	a.Lw(zkvm.R2, zkvm.R0, gM)
	a.Bgeu(zkvm.R1, zkvm.R2, "abort.perm")
	a.Li(zkvm.R2, recW)
	a.Mul(zkvm.R1, zkvm.R1, zkvm.R2)
}

// buildAggregation assembles the Algorithm 1 guest.
func buildAggregation() (*zkvm.Program, []zkvm.Region) {
	a := zkvm.NewAssembler()

	// --- Header ---
	a.Comment("journal the chained previous-journal hash")
	for k := 0; k < 8; k++ {
		a.Ecall(zkvm.SysRead)
		a.Ecall(zkvm.SysJournal)
	}
	a.Comment("read + journal + stash the claimed previous root")
	for k := uint32(0); k < 8; k++ {
		a.Ecall(zkvm.SysRead)
		a.Ecall(zkvm.SysJournal)
		a.Sw(zkvm.R1, zkvm.R0, memPrevRoot+k)
	}
	a.Comment("journal the epoch this round aggregates")
	a.Ecall(zkvm.SysRead)
	a.Ecall(zkvm.SysJournal)
	for _, g := range []uint32{gNR, gM, gPrev} {
		a.Ecall(zkvm.SysRead)
		a.Ecall(zkvm.SysJournal)
		a.Sw(zkvm.R1, zkvm.R0, g)
	}
	a.Comment("compute region bases from the declared sizes")
	a.Lw(zkvm.R4, zkvm.R0, gM)
	a.Li(zkvm.R5, recW)
	a.Mul(zkvm.R6, zkvm.R4, zkvm.R5)
	a.Addi(zkvm.R6, zkvm.R6, recBase)
	a.Sw(zkvm.R6, zkvm.R0, gBasePrev)
	a.Sw(zkvm.R6, zkvm.R0, gPrevCur)
	a.Lw(zkvm.R7, zkvm.R0, gPrev)
	a.Mul(zkvm.R5, zkvm.R7, zkvm.R5)
	a.Add(zkvm.R6, zkvm.R6, zkvm.R5)
	a.Sw(zkvm.R6, zkvm.R0, gBaseDig1)
	a.Slli(zkvm.R7, zkvm.R7, 3)
	a.Add(zkvm.R6, zkvm.R6, zkvm.R7)
	a.Addi(zkvm.R6, zkvm.R6, 8) // reduce's padding slot
	a.Sw(zkvm.R6, zkvm.R0, gBaseDig2)
	a.Sw(zkvm.R6, zkvm.R0, gDigCur)

	// --- Per-router ingest + commitment verification ---
	a.Label("router")
	a.Comment("ingest per-router batches and verify hash commitments")
	a.Li(zkvm.R8, 0) // router index
	a.Li(zkvm.R9, recBase)
	a.Li(zkvm.R10, 0) // records ingested
	a.Label("router.loop")
	a.Lw(zkvm.R4, zkvm.R0, gNR)
	a.Beq(zkvm.R8, zkvm.R4, "router.done")
	a.Ecall(zkvm.SysRead) // router ID
	a.Ecall(zkvm.SysJournal)
	for k := uint32(0); k < 8; k++ {
		a.Ecall(zkvm.SysRead)
		a.Ecall(zkvm.SysJournal)
		a.Sw(zkvm.R1, zkvm.R0, memCommit+k)
	}
	a.Ecall(zkvm.SysRead) // record count
	a.Add(zkvm.R10, zkvm.R10, zkvm.R1)
	a.Mov(zkvm.R12, zkvm.R9) // region start
	a.Li(zkvm.R13, recW)
	a.Mul(zkvm.R13, zkvm.R1, zkvm.R13)
	a.Add(zkvm.R13, zkvm.R13, zkvm.R9) // region end
	a.Beq(zkvm.R9, zkvm.R13, "router.hash")
	a.Label("router.rec")
	emitRead(a, zkvm.R9, 0, recW)
	a.Addi(zkvm.R9, zkvm.R9, recW)
	a.Bne(zkvm.R9, zkvm.R13, "router.rec")
	a.Label("router.hash")
	a.Mov(zkvm.R1, zkvm.R12)
	a.Sub(zkvm.R2, zkvm.R13, zkvm.R12)
	a.Li(zkvm.R3, memDigest)
	a.Ecall(zkvm.SysHash)
	emitCmp8(a, zkvm.R0, memCommit, zkvm.R0, memDigest, "abort.commit")
	a.Addi(zkvm.R8, zkvm.R8, 1)
	a.J("router.loop")
	a.Label("router.done")
	a.Lw(zkvm.R4, zkvm.R0, gM)
	a.Bne(zkvm.R10, zkvm.R4, "abort.count")

	// --- Previous CLog: read, strict key order, leaf digests, root ---
	a.Label("prev")
	a.Comment("read the previous CLog, each key above the last, and hash its leaves")
	a.Lw(zkvm.R9, zkvm.R0, gBasePrev)
	a.Lw(zkvm.R13, zkvm.R0, gBaseDig1)
	a.Li(zkvm.R2, entryW)
	a.Mov(zkvm.R3, zkvm.R13)
	a.Beq(zkvm.R9, zkvm.R13, "prev.root")
	emitRead(a, zkvm.R9, 0, 1) // the first entry has no predecessor
	a.J("prev.above0")
	// The predecessor's key is in r4..r7. Key words compare as they
	// arrive, down to the first that differs; from there on they replace
	// the predecessor's.
	a.Label("prev.entry")
	for k := 0; k < keyW; k++ {
		emitRead(a, zkvm.R9, uint32(k), 1)
		a.Bltu(rKey+k, zkvm.R1, fmt.Sprintf("prev.above%d", k))
		a.Bne(rKey+k, zkvm.R1, "abort.prevsort")
	}
	a.J("abort.prevsort") // the same key twice
	for k := 0; k < keyW; k++ {
		a.Label(fmt.Sprintf("prev.above%d", k))
		a.Mov(rKey+k, zkvm.R1)
		emitRead(a, zkvm.R9, uint32(k+1), 1)
	}
	emitRead(a, zkvm.R9, keyW+1, entryW-keyW-1)
	a.Mov(zkvm.R1, zkvm.R9)
	a.Ecall(zkvm.SysHash)
	a.Addi(zkvm.R3, zkvm.R3, 8)
	a.Addi(zkvm.R9, zkvm.R9, entryW)
	a.Bne(zkvm.R9, zkvm.R13, "prev.entry")
	a.Label("prev.root")
	a.Comment("rebuild the previous Merkle root in-VM")
	a.Mov(zkvm.R4, zkvm.R13)
	a.Lw(zkvm.R5, zkvm.R0, gPrev)
	a.Call("reduce")
	emitCmp8(a, zkvm.R0, memPrevRoot, zkvm.R4, 0, "abort.prevroot")

	// --- Merge-join (Algorithm 1 lines 13-23) ---
	//
	// Records arrive in the order of the host's sort permutation, read
	// one index at a time and addressed where phase B left them. The
	// (key, index) pairs must strictly increase: that makes the order
	// key-sorted and the indices distinct, and m distinct indices below
	// m are every record exactly once.
	a.Label("merge")
	a.Comment("merge-join the records, in permutation order, with the previous CLog")
	a.Lw(rLeft, zkvm.R0, gM)
	a.Lw(zkvm.R3, zkvm.R0, gDigCur)
	a.Beq(rLeft, zkvm.R0, "tail")
	emitNextRecord(a)
	a.Mov(rAgg, zkvm.R1)
	a.J("open")

	// absorb: one record into the open entry. r3 is the last record
	// absorbed, then this one.
	a.Label("absorb")
	emitNextRecord(a)
	for k := 0; k < keyW; k++ {
		a.Lw(zkvm.R2, zkvm.R1, recBase+uint32(k))
		a.Bne(zkvm.R2, rKey+k, fmt.Sprintf("absorb.ne%d", k))
	}
	a.Bgeu(zkvm.R3, zkvm.R1, "abort.perm")
	a.Mov(zkvm.R3, zkvm.R1)
	a.Label("absorb.fold")   // must mirror clog.Entry.Merge
	for k := 0; k < 4; k++ { // packets, bytes, dropped, hop_count
		a.Lw(zkvm.R2, zkvm.R3, recBase+4+uint32(k))
		a.Add(rAgg+k, rAgg+k, zkvm.R2)
	}
	a.Lw(zkvm.R2, zkvm.R3, recBase+8) // RTT: sum in entry[8], max in entry[9]
	a.Add(rAgg+4, rAgg+4, zkvm.R2)
	a.Bgeu(rAgg+5, zkvm.R2, "absorb.jitter")
	a.Mov(rAgg+5, zkvm.R2)
	a.Label("absorb.jitter")
	a.Lw(zkvm.R2, zkvm.R3, recBase+9) // jitter: sum in entry[10], max in entry[11]
	a.Add(rAgg+6, rAgg+6, zkvm.R2)
	a.Lw(zkvm.R1, zkvm.R0, memOpen+11)
	a.Bgeu(zkvm.R1, zkvm.R2, "absorb.next")
	a.Sw(zkvm.R2, zkvm.R0, memOpen+11)
	a.Label("absorb.next")
	a.Addi(rLeft, rLeft, ^uint32(0))
	a.Bne(rLeft, zkvm.R0, "absorb")
	a.J("emit")
	for k := 0; k < keyW; k++ { // the record's key differs at word k: it must be the greater
		a.Label(fmt.Sprintf("absorb.ne%d", k))
		a.Bltu(zkvm.R2, rKey+k, "abort.perm")
		if k < keyW-1 {
			a.J("emit")
		}
	}

	// emit: the open entry is complete. Its count was stored as its base
	// plus the records left when it opened; r1 is the record that opens
	// the next entry, if any is left.
	a.Label("emit")
	for k := uint32(0); k < entryW-2; k++ {
		a.Sw(rKey+int(k), zkvm.R0, memOpen+k)
	}
	a.Lw(zkvm.R2, zkvm.R0, memOpen+12)
	a.Sub(zkvm.R2, zkvm.R2, rLeft)
	a.Sw(zkvm.R2, zkvm.R0, memOpen+12)
	a.Mov(rAgg, zkvm.R1)
	a.Li(zkvm.R1, memOpen)
	a.Li(zkvm.R2, entryW)
	a.Lw(zkvm.R3, zkvm.R0, gDigCur)
	a.Ecall(zkvm.SysHash)
	a.Addi(zkvm.R3, zkvm.R3, 8)
	a.Beq(rLeft, zkvm.R0, "tail")

	// open: start the entry of record r8's key, from the previous entry
	// of that key if there is one. Previous entries below the key carry
	// over unchanged: their leaves are hashed where they lie. r3 is the
	// digest cursor.
	a.Label("open")
	for k := 0; k < keyW; k++ {
		a.Lw(rKey+k, rAgg, recBase+uint32(k))
	}
	a.Lw(zkvm.R1, zkvm.R0, gPrevCur)
	a.Lw(zkvm.R10, zkvm.R0, gBaseDig1)
	a.Label("open.scan")
	a.Beq(zkvm.R1, zkvm.R10, "open.fresh")
	for k := 0; k < keyW; k++ {
		a.Lw(zkvm.R2, zkvm.R1, uint32(k))
		a.Bne(zkvm.R2, rKey+k, fmt.Sprintf("open.ne%d", k))
	}
	a.Lw(zkvm.R2, zkvm.R1, 11)
	a.Sw(zkvm.R2, zkvm.R0, memOpen+11)
	a.Lw(zkvm.R2, zkvm.R1, 12)
	a.Add(zkvm.R2, zkvm.R2, rLeft)
	a.Sw(zkvm.R2, zkvm.R0, memOpen+12)
	a.Sw(zkvm.R3, zkvm.R0, gDigCur)
	a.Mov(zkvm.R3, rAgg)
	for k := 0; k < 7; k++ {
		a.Lw(rAgg+k, zkvm.R1, 4+uint32(k))
	}
	a.Addi(zkvm.R1, zkvm.R1, entryW)
	a.Sw(zkvm.R1, zkvm.R0, gPrevCur)
	a.J("absorb.fold")
	for k := 0; k < keyW; k++ {
		a.Label(fmt.Sprintf("open.ne%d", k))
		a.Bltu(rKey+k, zkvm.R2, "open.fresh")
		if k < keyW-1 {
			a.J("open.carry")
		}
	}
	a.Label("open.carry")
	a.Li(zkvm.R2, entryW)
	a.Ecall(zkvm.SysHash)
	a.Addi(zkvm.R3, zkvm.R3, 8)
	a.Addi(zkvm.R1, zkvm.R1, entryW)
	a.J("open.scan")
	a.Label("open.fresh")
	a.Sw(zkvm.R1, zkvm.R0, gPrevCur)
	a.Sw(zkvm.R0, zkvm.R0, memOpen+11)
	a.Sw(rLeft, zkvm.R0, memOpen+12)
	a.Sw(zkvm.R3, zkvm.R0, gDigCur)
	a.Mov(zkvm.R3, rAgg)
	for k := 0; k < 7; k++ {
		a.Li(rAgg+k, 0)
	}
	a.J("absorb.fold")

	// tail: no record is left; the rest of the previous CLog carries over.
	a.Label("tail")
	a.Lw(zkvm.R1, zkvm.R0, gPrevCur)
	a.Lw(zkvm.R10, zkvm.R0, gBaseDig1)
	a.Li(zkvm.R2, entryW)
	a.Beq(zkvm.R1, zkvm.R10, "journal")
	a.Label("tail.carry")
	a.Ecall(zkvm.SysHash)
	a.Addi(zkvm.R3, zkvm.R3, 8)
	a.Addi(zkvm.R1, zkvm.R1, entryW)
	a.Bne(zkvm.R1, zkvm.R10, "tail.carry")

	// --- New tree + journal ---
	a.Label("journal")
	a.Comment("journal the new count, the leaf digests, then the root")
	a.Lw(zkvm.R4, zkvm.R0, gBaseDig2)
	a.Sub(zkvm.R5, zkvm.R3, zkvm.R4)
	a.Srli(zkvm.R5, zkvm.R5, 3)
	a.WriteJournal(zkvm.R5)
	a.Mov(zkvm.R9, zkvm.R4)
	a.Beq(zkvm.R9, zkvm.R3, "journal.root")
	a.Label("journal.leaf")
	emitJournal(a, zkvm.R9, 0, 8)
	a.Addi(zkvm.R9, zkvm.R9, 8)
	a.Bne(zkvm.R9, zkvm.R3, "journal.leaf")
	a.Label("journal.root")
	a.Call("reduce")
	emitJournal(a, zkvm.R4, 0, 8)
	a.HaltCode(0)

	// --- Aborts ---
	a.Label("abort.commit")
	a.HaltCode(AbortCommitMismatch)
	a.Label("abort.count")
	a.HaltCode(AbortCountMismatch)
	a.Label("abort.perm")
	a.HaltCode(AbortBadPermutation)
	a.Label("abort.prevsort")
	a.HaltCode(AbortPrevUnsorted)
	a.Label("abort.prevroot")
	a.HaltCode(AbortPrevRootMismatch)

	emitReduce(a)
	return a.MustAssemble(), a.Regions()
}

// RouterBatch is one router's epoch contribution.
type RouterBatch struct {
	ID         uint32
	Commitment vmtree.Digest // published SHA-256 over the wire batch
	Records    []netflow.Record
}

// AggInput is the aggregation guest's private input tape.
type AggInput struct {
	PrevJournalHash vmtree.Digest
	PrevRoot        vmtree.Digest
	Epoch           uint32
	Routers         []RouterBatch
	PrevEntries     []clog.Entry // must be strictly key-sorted
}

// Words serialises the input tape, computing the sort-permutation
// hint over the concatenated records: stable, so that equal keys keep
// their index order, which the guest insists on. The permutation comes
// last because the merge consumes it an index at a time.
func (in *AggInput) Words() []uint32 {
	var recs []netflow.Record
	for _, r := range in.Routers {
		recs = append(recs, r.Records...)
	}
	m := len(recs)
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return recs[perm[a]].Key.Less(recs[perm[b]].Key)
	})

	out := make([]uint32, 0, 32+m*(recW+1)+len(in.PrevEntries)*entryW)
	out = append(out, in.PrevJournalHash[:]...)
	out = append(out, in.PrevRoot[:]...)
	out = append(out, in.Epoch)
	out = append(out, uint32(len(in.Routers)), uint32(m), uint32(len(in.PrevEntries)))
	for _, r := range in.Routers {
		out = append(out, r.ID)
		out = append(out, r.Commitment[:]...)
		out = append(out, uint32(len(r.Records)))
		out = append(out, netflow.BatchWords(r.Records)...)
	}
	out = append(out, clog.EntriesWords(in.PrevEntries)...)
	for _, p := range perm {
		out = append(out, uint32(p))
	}
	return out
}

// AggJournal is the decoded public output of the aggregation guest.
type AggJournal struct {
	PrevJournalHash vmtree.Digest
	PrevRoot        vmtree.Digest
	Epoch           uint32
	NumRouters      uint32
	NumRecords      uint32
	PrevCount       uint32
	RouterIDs       []uint32
	Commitments     []vmtree.Digest
	NewCount        uint32
	LeafDigests     []vmtree.Digest
	NewRoot         vmtree.Digest
}

// ErrBadJournal reports a journal that does not parse as an
// aggregation journal.
var ErrBadJournal = errors.New("guest: malformed journal")

// ParseAggJournal decodes the aggregation guest's journal words.
func ParseAggJournal(words []uint32) (*AggJournal, error) {
	rd := wordReader{words: words}
	var j AggJournal
	rd.digest(&j.PrevJournalHash)
	rd.digest(&j.PrevRoot)
	j.Epoch = rd.word()
	j.NumRouters = rd.word()
	j.NumRecords = rd.word()
	j.PrevCount = rd.word()
	if rd.err == nil && j.NumRouters > uint32(len(words)) {
		return nil, fmt.Errorf("%w: %d routers implausible", ErrBadJournal, j.NumRouters)
	}
	for r := uint32(0); r < j.NumRouters && rd.err == nil; r++ {
		j.RouterIDs = append(j.RouterIDs, rd.word())
		var d vmtree.Digest
		rd.digest(&d)
		j.Commitments = append(j.Commitments, d)
	}
	j.NewCount = rd.word()
	if rd.err == nil && j.NewCount > uint32(len(words)) {
		return nil, fmt.Errorf("%w: %d entries implausible", ErrBadJournal, j.NewCount)
	}
	for n := uint32(0); n < j.NewCount && rd.err == nil; n++ {
		var d vmtree.Digest
		rd.digest(&d)
		j.LeafDigests = append(j.LeafDigests, d)
	}
	rd.digest(&j.NewRoot)
	if rd.err != nil {
		return nil, rd.err
	}
	if rd.off != len(words) {
		return nil, fmt.Errorf("%w: %d trailing words", ErrBadJournal, len(words)-rd.off)
	}
	return &j, nil
}

// wordReader is a cursor over journal words.
type wordReader struct {
	words []uint32
	off   int
	err   error
}

func (r *wordReader) word() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.words) {
		r.err = fmt.Errorf("%w: truncated at word %d", ErrBadJournal, r.off)
		return 0
	}
	v := r.words[r.off]
	r.off++
	return v
}

func (r *wordReader) digest(d *vmtree.Digest) {
	for i := range d {
		d[i] = r.word()
	}
}

// ReferenceAggregate is the host-side model of the guest's merge: it
// returns the new CLog entries the guest will produce for the given
// previous entries and record batches: every record folded into its
// flow's entry (clog.Entry.Merge) in order, sorted by flow key. Used
// for differential testing and by the prover to prepare the next round.
func ReferenceAggregate(prev []clog.Entry, batches ...[]netflow.Record) []clog.Entry {
	out := make([]clog.Entry, 0, len(prev))
	at := make(map[netflow.FlowKey]int, len(prev))
	for _, e := range prev {
		if i, ok := at[e.Key]; ok {
			out[i] = e
			continue
		}
		at[e.Key] = len(out)
		out = append(out, e)
	}
	for _, b := range batches {
		for i := range b {
			r := &b[i]
			j, ok := at[r.Key]
			if !ok {
				j = len(out)
				at[r.Key] = j
				out = append(out, clog.Entry{Key: r.Key})
			}
			out[j].Merge(r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Less(out[j].Key) })
	return out
}

// ReferenceJournal is the journal the aggregation guest produces for
// in, word for word, where next is ReferenceAggregate over in's previous
// entries and batches. The host computes it without executing the
// guest; a receipt whose journal differs is the wrong round.
func ReferenceJournal(in *AggInput, next []clog.Entry) []uint32 {
	records := 0
	for _, r := range in.Routers {
		records += len(r.Records)
	}
	out := slices.Concat(in.PrevJournalHash[:], in.PrevRoot[:],
		[]uint32{in.Epoch, uint32(len(in.Routers)), uint32(records), uint32(len(in.PrevEntries))})
	for _, r := range in.Routers {
		out = append(out, r.ID)
		out = append(out, r.Commitment[:]...)
	}
	digests := clog.LeafDigests(next)
	out = append(out, uint32(len(digests)))
	for _, d := range digests {
		out = append(out, d[:]...)
	}
	root := vmtree.RootFromDigests(digests)
	return append(out, root[:]...)
}

// EntryWordsOf flattens entries for vmtree hashing.
func EntryWordsOf(entries []clog.Entry) [][]uint32 {
	out := make([][]uint32, len(entries))
	for i := range entries {
		w := entries[i].Words()
		out[i] = w[:]
	}
	return out
}
