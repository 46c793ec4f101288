package guest

import (
	"testing"

	"zkflow/internal/clog"
	"zkflow/internal/query"
	"zkflow/internal/trafficgen"
	"zkflow/internal/vmtree"
	"zkflow/internal/zkvm"
)

// sampleCLog builds a deterministic aggregated CLog.
func sampleCLog(seed int64, n int) []clog.Entry {
	g := trafficgen.New(trafficgen.Config{Seed: seed, NumFlows: 24, LossRate: 0.05})
	return ReferenceAggregate(nil, g.Batch(0, 0, n))
}

// runQuery executes a query guest over entries.
func runQuery(t *testing.T, q *query.Query, entries []clog.Entry) *QueryJournal {
	t.Helper()
	prog := QueryProgram(q)
	ex, err := zkvm.Execute(prog, QueryInput(entries), zkvm.ExecOptions{})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if ex.ExitCode != 0 {
		t.Fatalf("exit %d", ex.ExitCode)
	}
	j, err := ParseQueryJournal(ex.Journal)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	return j
}

// differential compares guest results with host-side query.Eval for a
// batch of queries.
func differential(t *testing.T, entries []clog.Entry, sqls ...string) {
	t.Helper()
	words := EntryWordsOf(entries)
	wantRoot := vmtree.Root(words)
	for _, sql := range sqls {
		q := query.MustParse(sql)
		j := runQuery(t, q, entries)
		wantMatched, wantResult := q.Eval(words)
		if j.Matched != wantMatched {
			t.Errorf("%s: guest matched %d, host %d", sql, j.Matched, wantMatched)
		}
		if j.Result() != wantResult {
			t.Errorf("%s: guest result %d, host %d", sql, j.Result(), wantResult)
		}
		if j.Root != wantRoot {
			t.Errorf("%s: root mismatch", sql)
		}
		if int(j.NumEntries) != len(entries) {
			t.Errorf("%s: entry count %d", sql, j.NumEntries)
		}
	}
}

func TestQueryGuestDifferential(t *testing.T) {
	entries := sampleCLog(1, 60)
	differential(t, entries,
		"SELECT COUNT(*) FROM clogs",
		"SELECT SUM(packets) FROM clogs",
		"SELECT SUM(hop_count) FROM clogs WHERE proto = 6",
		"SELECT AVG(rtt_sum) FROM clogs WHERE packets > 100",
		"SELECT MIN(rtt_max) FROM clogs",
		"SELECT MAX(bytes) FROM clogs WHERE dropped >= 1",
		"SELECT COUNT(*) FROM clogs WHERE NOT (dst_port = 443 OR dst_port = 80)",
		"SELECT SUM(bytes) FROM clogs WHERE src_port >= 1024 AND packets < 500",
		"SELECT COUNT(*) FROM clogs WHERE rtt_max >= 20000 AND (proto = 6 OR proto = 17)",
	)
}

func TestQueryGuestPaperQuery(t *testing.T) {
	entries := sampleCLog(2, 40)
	// Pin the paper's literal query on a flow we know exists.
	k := entries[3].Key
	sql := "SELECT SUM(hop_count) FROM clogs WHERE src_ip = \"" +
		ipOf(k.SrcIP) + "\" AND dst_ip = \"" + ipOf(k.DstIP) + "\""
	differential(t, entries, sql)
}

func ipOf(v uint32) string {
	return string([]byte{}) + itoa(v>>24) + "." + itoa((v>>16)&0xff) + "." + itoa((v>>8)&0xff) + "." + itoa(v&0xff)
}

func itoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var b [10]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestQueryGuestEmptyCLog(t *testing.T) {
	j := runQuery(t, query.MustParse("SELECT COUNT(*) FROM clogs"), nil)
	if j.Matched != 0 || j.NumEntries != 0 || j.Root != vmtree.Zero {
		t.Fatalf("empty clog journal: %+v", j)
	}
}

func TestQueryGuestMinEmptyMatch(t *testing.T) {
	entries := sampleCLog(3, 10)
	j := runQuery(t, query.MustParse("SELECT MIN(packets) FROM clogs WHERE proto = 99"), entries)
	if j.Matched != 0 || j.Result() != 0xffffffff {
		t.Fatalf("min sentinel: %+v", j)
	}
}

func TestQueryGuestSumCarry(t *testing.T) {
	// Force the 64-bit accumulator's carry path.
	var entries []clog.Entry
	for i := 0; i < 3; i++ {
		var e clog.Entry
		e.Key.SrcIP = uint32(i)
		e.Bytes = 0xffffffff
		entries = append(entries, e)
	}
	differential(t, entries, "SELECT SUM(bytes) FROM clogs")
}

func TestQueryImageIDBindsQuery(t *testing.T) {
	q1 := query.MustParse("SELECT COUNT(*) FROM clogs WHERE proto = 6")
	q2 := query.MustParse("SELECT COUNT(*) FROM clogs WHERE proto = 17")
	if QueryProgram(q1).ID() == QueryProgram(q2).ID() {
		t.Fatal("different queries share an image ID")
	}
	// Recompiling the same query must be deterministic.
	if QueryProgram(q1).ID() != QueryProgram(q1).ID() {
		t.Fatal("query compilation not deterministic")
	}
}

func TestQueryProveVerify(t *testing.T) {
	entries := sampleCLog(4, 15)
	q := query.MustParse("SELECT SUM(dropped) FROM clogs")
	prog := QueryProgram(q)
	r, err := zkvm.Prove(prog, QueryInput(entries), zkvm.ProveOptions{Checks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := zkvm.Verify(prog, r, zkvm.VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	j, err := ParseQueryJournal(r.JournalWords())
	if err != nil {
		t.Fatal(err)
	}
	_, want := q.Eval(EntryWordsOf(entries))
	if j.Result() != want {
		t.Fatalf("result %d, want %d", j.Result(), want)
	}
}

func TestParseQueryJournalRejects(t *testing.T) {
	if _, err := ParseQueryJournal(make([]uint32, 11)); err == nil {
		t.Fatal("short journal accepted")
	}
	if _, err := ParseQueryJournal(make([]uint32, 13)); err == nil {
		t.Fatal("long journal accepted")
	}
}

func TestQueryGuestDeepPredicate(t *testing.T) {
	entries := sampleCLog(5, 20)
	sql := "SELECT COUNT(*) FROM clogs WHERE ((((proto = 6 AND packets > 0) OR " +
		"(proto = 17 AND bytes > 0)) AND NOT dropped > 1000) OR count >= 1)"
	differential(t, entries, sql)
}

// TestQueryGuestCodegenEdges drives the compiler's branches against
// query.Eval: every operator on whole, shifted and masked fields;
// bounds at both ends of the range, where <= and > cannot be rewritten
// as < bound+1; a predicate nested past the evaluation stack's
// registers, both ways round; and one that reads more entry words than
// there are registers to catch them in.
func TestQueryGuestCodegenEdges(t *testing.T) {
	entries := sampleCLog(6, 80)
	entries[3].Packets, entries[5].Packets, entries[7].Dropped = 0xffffffff, 0, 0xffffffff
	var sqls []string
	for _, f := range []string{"packets", "src_port", "dst_port"} {
		for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
			for _, v := range []string{"0", "443", "4294967295"} {
				sqls = append(sqls, "SELECT COUNT(*) FROM clogs WHERE "+f+" "+op+" "+v)
			}
		}
	}
	right := "proto = 6 OR (packets > 3 AND (dropped = 0 OR (hop_count < 90 AND (count >= 2 OR (rtt_max > 10 AND (src_port != 80 OR bytes > 700))))))"
	left := "((((((bytes > 700 OR src_port != 80) AND rtt_max > 10) OR count >= 2) AND hop_count < 90) OR dropped = 0) AND packets > 3) OR proto = 6"
	sqls = append(sqls,
		// Every spilled operand decides the result: true AND (true AND (... proto = 6)).
		"SELECT COUNT(*) FROM clogs WHERE count >= 1 AND (packets >= 0 AND (count >= 1 AND (packets >= 0 AND (count >= 1 AND (packets >= 0 AND proto = 6)))))",
		"SELECT COUNT(*) FROM clogs WHERE count < 1 OR (NOT packets >= 0 OR (count < 1 OR (NOT packets >= 0 OR (count < 1 OR (count < 1 OR proto = 6)))))",
		"SELECT MIN(bytes) FROM clogs WHERE "+right,
		"SELECT MAX(dst_port) FROM clogs WHERE "+left,
		"SELECT SUM(src_port) FROM clogs WHERE NOT ("+right+") OR ("+left+")",
		"SELECT AVG(jitter_max) FROM clogs WHERE src_ip != \"0.0.0.0\" AND dst_ip != \"0.0.0.0\" AND dst_port >= 0 AND proto < 255 "+
			"AND packets >= 0 AND bytes >= 0 AND dropped >= 0 AND hop_count >= 0 AND rtt_sum >= 0 AND jitter_sum >= 0 AND count > 0",
	)
	differential(t, entries, sqls...)
}
