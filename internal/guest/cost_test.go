package guest

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"zkflow/internal/clog"
	"zkflow/internal/netflow"
	"zkflow/internal/query"
	"zkflow/internal/trafficgen"
	"zkflow/internal/zkvm"
)

// A one-segment seal costs 0.75n + 1.25m + 1.25f SHA-256 compressions
// for n trace rows, m memory-log entries and a final table of f words
// (format v6, EXPERIMENTS.md E44; 0.75n + 2.5m under v5's sorted log,
// E41; n + 3.5m before a Merkle node was one compression, E24), and all
// three are properties of the guest program alone: the same input gives
// the same counts on any host. These tests pin them, with no
// tolerance; `make guest-profile` prints the per-phase tables they log.

// sealCost is the seal's compression count for a one-segment trace: an
// exec row 0.75, a log entry 1.25 (0.75 for its 17 bytes, 0.5 for its
// ratio-column product) and a final-table record 1.25 (0.75 for its 12
// bytes, 0.5 for its product).
func sealCost(rows, entries, final int) float64 {
	return 0.75*float64(rows) + 1.25*float64(entries) + 1.25*float64(final)
}

// v5Cost is the count under format v5's address-sorted log, which the
// v6 count is compared with.
func v5Cost(rows, entries int) float64 { return 0.75*float64(rows) + 2.5*float64(entries) }

// v3Cost is the same count under format v3's two-compression node, the
// unit the guest rewrite's acceptance lines below are written in.
func v3Cost(rows, entries int) float64 { return float64(rows) + 3.5*float64(entries) }

// finalWords is the size of a one-segment run's final table: one
// record per word the run accessed.
func finalWords(ex *zkvm.Execution) int {
	words := map[uint32]bool{}
	for _, e := range ex.MemLog {
		words[e.Addr] = true
	}
	return len(words)
}

// steadyRound is the round after warm rounds of the benchmark's
// epoch shape (bench/epoch_run.go: routers x per records over
// flows-per-router keys), when the CLog holds nearly every key and a
// round mostly folds records into entries that exist.
func steadyRound(seed int64, routers, per, flows, warm int) *AggInput {
	gens := trafficgen.PerRouter(trafficgen.Config{Seed: seed, NumFlows: flows, Routers: routers, LossRate: 0.02})
	var prev []clog.Entry
	for e := 0; ; e++ {
		in := &AggInput{PrevRoot: prevRootOf(prev), PrevEntries: prev, Epoch: uint32(e)}
		var batches [][]netflow.Record
		for r, g := range gens {
			recs := g.Batch(uint32(r), uint64(e), per)
			in.Routers = append(in.Routers, RouterBatch{ID: uint32(r), Commitment: commitOf(recs), Records: recs})
			batches = append(batches, recs)
		}
		if e == warm {
			return in
		}
		prev = ReferenceAggregate(prev, batches...)
	}
}

// phaseTable renders an execution's rows and entries per unit of work,
// phase by phase, and its totals: n, m, the final table's f and the
// seal's compressions, against what v5 spent.
func phaseTable(ex *zkvm.Execution, regions []zkvm.Region, units int, unit string) string {
	var b strings.Builder
	per := func(v int) float64 { return float64(v) / float64(units) }
	fmt.Fprintf(&b, "%-10s %10s %12s %14s\n", "phase", "rows/"+unit, "entries/"+unit, "0.75n+1.25m/"+unit)
	for _, e := range zkvm.Profile(ex, regions) {
		fmt.Fprintf(&b, "%-10s %10.2f %12.2f %14.2f\n", e.Name, per(e.Cycles), per(e.MemOps), sealCost(e.Cycles, e.MemOps, 0)/float64(units))
	}
	n, m, f := len(ex.Rows), len(ex.MemLog), finalWords(ex)
	fmt.Fprintf(&b, "%-10s %10.2f %12.2f\n", "total", per(n), per(m))
	fmt.Fprintf(&b, "n %d, m %d, f %d: v6 %.1f compressions (%.2f/%s), v5 %.1f", n, m, f, sealCost(n, m, f), sealCost(n, m, f)/float64(units), unit, v5Cost(n, m))
	return b.String()
}

// opcodeMix renders an execution's dynamic opcode mix, most frequent
// first, and what its SysHash calls cost in SHA-256 compressions: a
// message of n words is 4n bytes, padded by at least 9 to 64-byte blocks.
func opcodeMix(prog *zkvm.Program, ex *zkvm.Execution) string {
	counts := map[zkvm.Op]int{}
	calls, words, compressions := 0, 0, 0
	for _, row := range ex.Rows {
		in := prog.Instrs[row.PC]
		counts[in.Op]++
		if in.Op == zkvm.OpEcall && in.Imm == zkvm.SysHash {
			n := int(row.Regs[zkvm.R2])
			calls, words, compressions = calls+1, words+n, compressions+(4*n+9+63)/64
		}
	}
	ops := make([]zkvm.Op, 0, len(counts))
	for op := range counts {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool {
		if counts[ops[i]] != counts[ops[j]] {
			return counts[ops[i]] > counts[ops[j]]
		}
		return ops[i] < ops[j]
	})
	var b strings.Builder
	for _, op := range ops {
		fmt.Fprintf(&b, "%-6s %8d\n", op, counts[op])
	}
	fmt.Fprintf(&b, "SysHash: %d calls over %d words, %d compressions", calls, words, compressions)
	return b.String()
}

func TestAggregationCostBudget(t *testing.T) {
	// 4 x 250 records of 4 x 64 flows onto the 245 entries five such
	// rounds leave. The parent of the rewrite spent 423 330 rows and
	// 135 443 entries here: 897.4 compressions per record.
	const maxRows, maxEntries, maxFinal = 85_367, 72_071, 20_214
	in := steadyRound(1, 4, 250, 64, 5)
	ex, err := zkvm.Execute(AggregationProgram(), in.Words(), zkvm.ExecOptions{})
	if err != nil || ex.ExitCode != 0 {
		t.Fatalf("execute: %v, exit %d", err, ex.ExitCode)
	}
	t.Logf("aggregation, 1000 records onto %d entries:\n%s", len(in.PrevEntries), phaseTable(ex, AggregationRegions(), 1000, "rec"))
	t.Logf("dynamic opcode mix:\n%s", opcodeMix(AggregationProgram(), ex))
	if len(ex.Rows) > maxRows || len(ex.MemLog) > maxEntries {
		t.Errorf("%d rows and %d entries, budget %d and %d", len(ex.Rows), len(ex.MemLog), maxRows, maxEntries)
	}
	// The seal: 179 381.5 compressions under format v6, where v5's
	// sorted log spent 244 202.8; the acceptance line of v6 is 200k.
	if f := finalWords(ex); f > maxFinal {
		t.Errorf("final table of %d words, budget %d", f, maxFinal)
	}
	if cost := sealCost(len(ex.Rows), len(ex.MemLog), finalWords(ex)); cost > 179_381.5 {
		t.Errorf("the seal costs %.1f compressions", cost)
	}
	// The acceptance line of the rewrite: at most 200 rows per record,
	// and the seal's cost per record down 1.5x from 897.4.
	if rows, cost := float64(len(ex.Rows))/1000, v3Cost(len(ex.Rows), len(ex.MemLog))/1000; rows > 200 || cost > 897.4/1.5 {
		t.Errorf("%.1f rows and %.1f compressions per record", rows, cost)
	}
}

// TestAggregationSoundness pins what the benchmark's steady-state
// round's receipt gives against a one-step forgery at the default 48
// checks: its weakest family is exec, over the 85 366 transitions of
// its 85 367 rows, which accepts one broken transition with probability
// (1 − 1/85 366)^48 ≈ 0.99944. Format v6 left that headline where v5
// had it; every memory family's domain is smaller.
func TestAggregationSoundness(t *testing.T) {
	in := steadyRound(1, 4, 250, 64, 5)
	r, err := zkvm.Prove(AggregationProgram(), in.Words(), zkvm.ProveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := zkvm.Soundness(r)
	for _, f := range rep.Families {
		t.Logf("%-5s k=%d domain %6d: accepts with %.6f, %.5f bits", f.Family, f.Checks, f.Domain, f.Accept, f.Bits)
	}
	h := rep.Headline
	want := math.Pow(1-1.0/85_366, 48)
	if h.Family != "exec" || h.Domain != 85_366 || h.Checks != zkvm.DefaultChecks || math.Abs(h.Accept-want) > 1e-12 {
		t.Fatalf("headline %+v, want exec over 85 366 transitions at k=48, accepting with %.6f", h, want)
	}
	if math.Abs(h.Bits+math.Log2(want)) > 1e-9 || len(rep.Families) != 3 {
		t.Fatalf("headline %.6f bits of %d families", h.Bits, len(rep.Families))
	}
}

func TestQueryCostBudget(t *testing.T) {
	// The benchmark's query-mix CLog: two rounds of 4 x 500 records of
	// 4 x 512 flows, 762 entries, under its six query shapes. before is
	// the parent's n + 3.5m per entry, which no shape may exceed.
	gens := trafficgen.PerRouter(trafficgen.Config{Seed: 1, NumFlows: 512, Routers: 4, LossRate: 0.02})
	var batches [][]netflow.Record
	for e := uint64(0); e < 2; e++ {
		for r, g := range gens {
			batches = append(batches, g.Batch(uint32(r), e, 500))
		}
	}
	entries := ReferenceAggregate(nil, batches...)
	for _, shape := range []struct {
		sql                 string
		maxRows, maxEntries int
		before              float64
	}{
		{`SELECT SUM(hop_count) FROM clogs WHERE src_ip = "10.0.0.1" AND dst_ip = "10.0.0.2";`, 33_762, 44_278, 371.2},
		{`SELECT COUNT(*) FROM clogs WHERE dropped >= 3;`, 30_643, 44_278, 341.6},
		{`SELECT SUM(bytes) FROM clogs WHERE proto = 6 AND packets > 10;`, 36_786, 44_278, 379.6},
		{`SELECT AVG(rtt_sum) FROM clogs WHERE count >= 1;`, 33_762, 44_278, 350.2},
		{`SELECT MAX(rtt_max) FROM clogs WHERE NOT (proto = 17 OR dst_port < 1024);`, 35_059, 44_278, 385.4},
		{`SELECT SUM(packets) FROM clogs WHERE src_port BETWEEN 1000 AND 50000 AND proto IN (6, 17);`, 41_572, 44_278, 441.9},
	} {
		prog, regions := buildQuery(query.MustParse(shape.sql))
		ex, err := zkvm.Execute(prog, QueryInput(entries), zkvm.ExecOptions{})
		if err != nil || ex.ExitCode != 0 {
			t.Fatalf("%s: %v, exit %d", shape.sql, err, ex.ExitCode)
		}
		t.Logf("%s\n%s", shape.sql, phaseTable(ex, regions, len(entries), "entry"))
		if len(ex.Rows) > shape.maxRows || len(ex.MemLog) > shape.maxEntries {
			t.Errorf("%s: %d rows and %d entries, budget %d and %d", shape.sql, len(ex.Rows), len(ex.MemLog), shape.maxRows, shape.maxEntries)
		}
		if f := finalWords(ex); f > 16_003 {
			t.Errorf("%s: final table of %d words, budget 16 003", shape.sql, f)
		}
		if cost := v3Cost(len(ex.Rows), len(ex.MemLog)) / float64(len(entries)); cost > shape.before {
			t.Errorf("%s: %.1f compressions per entry, %.1f before the rewrite", shape.sql, cost, shape.before)
		}
	}
}

// TestRegionsCoverEveryPhase: the guests are straight-line code under
// phase labels, no longer calls into labelled subroutines, so a phase
// that lost its label would be counted under its neighbour.
func TestRegionsCoverEveryPhase(t *testing.T) {
	names := func(prog *zkvm.Program, regions []zkvm.Region) string {
		var out []string
		next := 0
		for _, r := range regions {
			if r.Start != next {
				t.Fatalf("region %s starts at %d, the last ended at %d", r.Name, r.Start, next)
			}
			out, next = append(out, r.Name), r.End
		}
		if next != len(prog.Instrs) {
			t.Fatalf("regions end at %d of %d instructions", next, len(prog.Instrs))
		}
		return strings.Join(out, " ")
	}
	if got, want := names(AggregationProgram(), AggregationRegions()), "entry router prev merge absorb emit open tail journal abort reduce"; got != want {
		t.Errorf("aggregation phases %q, want %q", got, want)
	}
	prog, regions := buildQuery(query.MustParse("SELECT MAX(bytes) FROM clogs WHERE proto = 6"))
	if got, want := names(prog, regions), "entry scan root reduce"; got != want {
		t.Errorf("query phases %q, want %q", got, want)
	}
}
