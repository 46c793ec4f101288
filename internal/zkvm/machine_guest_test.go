package zkvm_test

import (
	"fmt"
	"testing"

	"zkflow/internal/guest"
	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/query"
	"zkflow/internal/sketch"
	"zkflow/internal/trafficgen"
	"zkflow/internal/vmtree"
	"zkflow/internal/zkvm"
)

// aggregationEpoch is one round of the paper's 4-router topology over
// records flow records.
func aggregationEpoch(records int) *guest.AggInput {
	const routers = 4
	gens := trafficgen.PerRouter(trafficgen.Config{Seed: int64(records), NumFlows: records, Routers: routers, LossRate: 0.02})
	in := &guest.AggInput{}
	for i, g := range gens {
		n := records / routers
		if i == routers-1 {
			n = records - n*(routers-1)
		}
		recs := g.Batch(uint32(i), 0, n)
		in.Routers = append(in.Routers, guest.RouterBatch{
			ID: uint32(i), Commitment: vmtree.FromBytes(ledger.CommitRecords(recs)), Records: recs,
		})
	}
	return in
}

// guestRun is one guest program of internal/guest over one input.
type guestRun struct {
	name  string
	prog  *zkvm.Program
	input []uint32
}

// guestRuns is every guest program of internal/guest, at several sizes.
func guestRuns() []guestRun {
	var runs []guestRun
	for _, n := range []int{8, 60, 250} {
		in := aggregationEpoch(n)
		runs = append(runs, guestRun{fmt.Sprintf("aggregate/%d", n), guest.AggregationProgram(), in.Words()})
		var batches [][]netflow.Record
		for _, b := range in.Routers {
			batches = append(batches, b.Records)
		}
		q := query.MustParse(`SELECT SUM(hop_count) FROM clogs WHERE src_ip = "1.1.1.1" AND dst_ip = "9.9.9.9";`)
		runs = append(runs, guestRun{fmt.Sprintf("query/%d", n), guest.QueryProgram(q), guest.QueryInput(guest.ReferenceAggregate(nil, batches...))})
	}
	// A second round: records meet, miss and pass the entries of a
	// previous CLog whose count is no power of two, so the merge takes
	// every path and reduce pads odd levels by computed jump.
	first, second := aggregationEpoch(60), aggregationEpoch(60)
	second.Routers = second.Routers[1:]
	var batches [][]netflow.Record
	for _, b := range first.Routers {
		batches = append(batches, b.Records)
	}
	second.PrevEntries = guest.ReferenceAggregate(nil, batches...)
	second.PrevEntries = second.PrevEntries[:(len(second.PrevEntries)-1)|1]
	second.PrevRoot = vmtree.Root(guest.EntryWordsOf(second.PrevEntries))
	runs = append(runs, guestRun{"aggregate/second-round", guest.AggregationProgram(), second.Words()})
	// A predicate nested past the registers of the query guest's
	// evaluation stack, so operands wait in memory.
	nested := query.MustParse(`SELECT MIN(bytes) FROM clogs WHERE proto = 6 OR (packets > 3 AND (dropped = 0 OR (hop_count < 9 AND (count >= 2 OR (rtt_max > 10 AND src_port != 80)))));`)
	runs = append(runs, guestRun{"query/nested", guest.QueryProgram(nested), guest.QueryInput(second.PrevEntries)})
	// A tampered batch: the guest aborts with a nonzero exit code.
	bad := aggregationEpoch(40)
	bad.Routers[1].Records[3].Bytes++
	runs = append(runs, guestRun{"aggregate/tampered", guest.AggregationProgram(), bad.Words()})

	for _, routers := range []int{1, 3} {
		const depth, width = 4, 128
		var batches []guest.SketchBatch
		for r := 0; r < routers; r++ {
			s := sketch.MustNew(depth, width)
			for i := uint32(0); i < 200; i++ {
				s.Add(netflow.FlowKey{SrcIP: i % 61, DstIP: i * 3, SrcPort: uint16(i), DstPort: 80, Proto: 17}, 1+i%9)
			}
			batches = append(batches, guest.SketchBatch{ID: uint32(r), Commitment: guest.CommitSketch(s), Sketch: s})
		}
		queries := []netflow.FlowKey{{SrcIP: 5, DstIP: 15, SrcPort: 5, DstPort: 80, Proto: 17}}
		runs = append(runs, guestRun{fmt.Sprintf("sketch/%d", routers), guest.SketchMergeProgram(depth, width), guest.SketchInput(batches, queries)})
	}
	block := [16]uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	for _, iters := range []uint32{1, 3} {
		runs = append(runs, guestRun{fmt.Sprintf("soft-sha/%d", iters), guest.SoftSHA256ChainProgram(), guest.SoftSHA256Input(iters, block)})
	}
	for _, iters := range []uint32{1, 50, 700} {
		runs = append(runs, guestRun{fmt.Sprintf("hash-chain/%d", iters), guest.PrecompileHashChainProgram(), guest.SoftSHA256Input(iters, block)})
	}
	return runs
}

// TestEveryOpcodeHasAGuest: TinyRISC keeps exactly the instructions and
// host services some guest emits. Over the programs of every guest and
// of the benchmark's six query shapes, each live opcode (one DecodeInstr
// accepts) and each live service (one an ecall runs without a trap) is
// emitted somewhere, and no retired opcode or service number is emitted
// at all.
func TestEveryOpcodeHasAGuest(t *testing.T) {
	progs := map[string]*zkvm.Program{}
	for _, r := range guestRuns() {
		progs[r.name] = r.prog
	}
	for i, sql := range []string{ // bench/querymix.go's query shapes
		`SELECT SUM(hop_count) FROM clogs WHERE src_ip = "1.1.1.1" AND dst_ip = "9.9.9.9";`,
		`SELECT COUNT(*) FROM clogs WHERE dropped >= 3;`,
		`SELECT SUM(bytes) FROM clogs WHERE proto = 6 AND packets > 10;`,
		`SELECT AVG(rtt_sum) FROM clogs WHERE count >= 2;`,
		`SELECT MAX(rtt_max) FROM clogs WHERE NOT (proto = 17 OR dst_port < 1024);`,
		`SELECT SUM(packets) FROM clogs WHERE src_port BETWEEN 1000 AND 50000 AND proto IN (6, 17);`,
	} {
		progs[fmt.Sprintf("query-mix/%d", i)] = guest.QueryProgram(query.MustParse(sql))
	}
	liveOp := func(op zkvm.Op) bool {
		_, err := zkvm.DecodeInstr(zkvm.Instr{Op: op}.Encode())
		return err == nil
	}
	liveCall := func(sys uint32) bool {
		a := zkvm.NewAssembler()
		a.Ecall(sys)
		a.HaltCode(0)
		_, err := zkvm.Execute(a.MustAssemble(), []uint32{0}, zkvm.ExecOptions{})
		return err == nil
	}
	ops, calls := map[zkvm.Op]bool{}, map[uint32]bool{}
	for name, prog := range progs {
		for pc, in := range prog.Instrs {
			if !liveOp(in.Op) {
				t.Errorf("%s: pc %d emits retired %v", name, pc, in.Op)
			}
			ops[in.Op] = true
			if in.Op == zkvm.OpEcall {
				if !liveCall(in.Imm) {
					t.Errorf("%s: pc %d calls retired service %d", name, pc, in.Imm)
				}
				calls[in.Imm] = true
			}
		}
	}
	for op := zkvm.OpInvalid + 1; op < zkvm.OpMax; op++ {
		if liveOp(op) && !ops[op] {
			t.Errorf("no guest emits %v", op)
		}
	}
	for sys := uint32(0); sys < 16; sys++ { // services are numbered from 1 up
		if liveCall(sys) && !calls[sys] {
			t.Errorf("no guest calls service %d", sys)
		}
	}
}

// TestMachineMatchesReference runs every guest program of
// internal/guest, at several sizes, through the differential check of
// machine_test.go: monolithic, segmented at the floor, mid-loop and
// longer-than-most cuts, and count-only, each identical to the retained
// map-backed loops in rows, memory log, journal, exit code, cuts,
// boundary states and images, and count-only segment count.
func TestMachineMatchesReference(t *testing.T) {
	for _, r := range guestRuns() {
		t.Run(r.name, func(t *testing.T) {
			if err := zkvm.CheckAgainstReference(r.prog, r.input, zkvm.ExecOptions{}, zkvm.ReferenceCuts); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGuestExecLeavesRoundTrip: for every guest, mono and on the
// differential tests' cuts, each exec leaf the prover encodes expands
// back to exactly the rows it stood for.
func TestGuestExecLeavesRoundTrip(t *testing.T) {
	for _, r := range guestRuns() {
		t.Run(r.name, func(t *testing.T) {
			for _, cut := range append([]int{0}, zkvm.ReferenceCuts...) {
				if err := zkvm.CheckExecLeaves(r.prog, r.input, cut); err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
			}
		})
	}
}

// FuzzExpandExecLeaf: an opened exec leaf is bytes off the wire that
// the verifier runs the guest program on. Whatever they are — the corpus
// starts from real leaves of every guest — expanding them under any
// guest neither panics nor allocates beyond an error message, and
// succeeds only for the one encoding of rows that follow from each other
// (zkvm.CheckHostileExecLeaf).
func FuzzExpandExecLeaf(f *testing.F) {
	var progs []*zkvm.Program
	seen := map[zkvm.ImageID]bool{}
	for _, r := range guestRuns() {
		if seen[r.prog.ID()] {
			continue
		}
		seen[r.prog.ID()] = true
		leaves, err := zkvm.ExecLeaves(r.prog, r.input, 97)
		if err != nil {
			f.Fatal(err)
		}
		for _, leaf := range leaves {
			f.Add(uint8(len(progs)), leaf)
		}
		progs = append(progs, r.prog)
	}
	f.Fuzz(func(t *testing.T, which uint8, leaf []byte) {
		if err := zkvm.CheckHostileExecLeaf(progs[int(which)%len(progs)], leaf); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkExecute times the emulator alone on the 1000-record
// aggregation guest in its three uses: the monolithic trace, the trace
// cut every 2^17 rows (the epoch-4k-seg setting) with its boundary
// images, and the count-only pass over the
// same cuts. Slabs are released every iteration, so the steady state
// measures the loop over pooled slabs, not mallocgc.
func BenchmarkExecute(b *testing.B) {
	prog, input := guest.AggregationProgram(), aggregationEpoch(1000).Words()
	ex, err := zkvm.Execute(prog, input, zkvm.ExecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rows := len(ex.Rows) // of the monolithic trace, whatever the mode
	for _, mode := range []struct {
		name   string
		cut    int
		traced bool
	}{{"mono", 0, true}, {"segmented", 1 << 17, true}, {"count", 1 << 17, false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := zkvm.RunMachine(prog, input, mode.cut, mode.traced); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(rows)), "ns/row")
		})
	}
}
