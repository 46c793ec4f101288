package guest

import (
	"fmt"

	"zkflow/internal/clog"
	"zkflow/internal/query"
	"zkflow/internal/vmtree"
	"zkflow/internal/zkvm"
)

// Query guest memory map: entries are read to recBase and their leaf
// digests land just past them.
const (
	qCount     = 100 // global: entry count
	qStackBase = 200 // predicate operands no register is left for
)

// queryRegs are the registers a query program is free to assign: the
// first few to the predicate's evaluation stack, the rest to entry
// words the query reads, caught as the entry streams in.
var queryRegs = []int{zkvm.R4, zkvm.R5, zkvm.R6, zkvm.R7, zkvm.R9, zkvm.R10, zkvm.R15}

// maxEvalRegs bounds the evaluation stack's share of queryRegs.
const maxEvalRegs = 4

// queryGen is the codegen state of one query program.
type queryGen struct {
	a    *zkvm.Assembler
	eval []int       // evaluation stack: operand d is in eval[min(d, len-1)]
	held map[int]int // entry word -> the register that holds it
}

// QueryProgram compiles a parsed query into a dedicated guest
// program. The query's constants are embedded in the instruction
// stream, so the program's image ID cryptographically identifies the
// query: a verifier recompiles the query and compares image IDs.
//
// The guest reads the CLog snapshot one entry at a time — hashing its
// leaf, evaluating the predicate and folding the aggregate while the
// entry's words are at hand — rebuilds the Merkle root in-VM (binding
// the result to the aggregation chain), and journals the entry count,
// the root, the matched count, and the 64-bit aggregate.
func QueryProgram(q *query.Query) *zkvm.Program {
	prog, _ := buildQuery(q)
	return prog
}

// buildQuery assembles q's program and its phase regions.
func buildQuery(q *query.Query) (*zkvm.Program, []zkvm.Region) {
	a := zkvm.NewAssembler()
	g := &queryGen{a: a, held: map[int]int{}}
	var words []int // entry words in order of first use
	depth := exprWords(q.Where, &words)
	if q.Agg != query.AggCount {
		words = append(words, q.Field.Word)
	}
	g.eval = queryRegs[:min(depth, maxEvalRegs)]
	for _, w := range words {
		if _, ok := g.held[w]; !ok && len(g.eval)+len(g.held) < len(queryRegs) {
			g.held[w] = queryRegs[len(g.eval)+len(g.held)]
		}
	}

	a.Comment("read + journal the CLog entry count")
	a.Ecall(zkvm.SysRead)
	a.Ecall(zkvm.SysJournal)
	a.Sw(zkvm.R1, zkvm.R0, qCount)
	a.Li(zkvm.R2, entryW) // for every leaf hash
	a.Li(zkvm.R8, recBase)
	a.Mul(zkvm.R14, zkvm.R1, zkvm.R2)
	a.Add(zkvm.R14, zkvm.R14, zkvm.R8) // end of the entries, base of the digests
	a.Mov(zkvm.R3, zkvm.R14)
	a.Li(zkvm.R11, 0) // matched
	a.Li(zkvm.R12, 0) // accumulator low
	if q.Agg == query.AggMin {
		a.Li(zkvm.R12, 0xffffffff)
	}
	a.Li(zkvm.R13, 0) // accumulator high
	a.Beq(zkvm.R8, zkvm.R14, "root")

	a.Label("scan")
	a.Comment("per entry: read, hash the leaf, filter, aggregate")
	for k := 0; k < entryW; k++ {
		emitRead(a, zkvm.R8, uint32(k), 1)
		if r, ok := g.held[k]; ok {
			a.Mov(r, zkvm.R1)
		}
	}
	a.Mov(zkvm.R1, zkvm.R8)
	a.Ecall(zkvm.SysHash)
	a.Addi(zkvm.R3, zkvm.R3, 8)
	if q.Where != nil {
		g.predicate(q.Where, 0)
		a.Beq(g.eval[0], zkvm.R0, "scan.next")
	}
	a.Addi(zkvm.R11, zkvm.R11, 1)
	if q.Agg != query.AggCount { // COUNT's result is the matched counter
		v := g.field(zkvm.R1, q.Field)
		switch q.Agg {
		case query.AggSum, query.AggAvg:
			a.Add(zkvm.R12, zkvm.R12, v)
			a.Sltu(zkvm.R1, zkvm.R12, v) // carry out
			a.Add(zkvm.R13, zkvm.R13, zkvm.R1)
		case query.AggMin:
			a.Bgeu(v, zkvm.R12, "scan.next")
			a.Mov(zkvm.R12, v)
		case query.AggMax:
			a.Bgeu(zkvm.R12, v, "scan.next")
			a.Mov(zkvm.R12, v)
		}
	}
	a.Label("scan.next")
	a.Addi(zkvm.R8, zkvm.R8, entryW)
	a.Bne(zkvm.R8, zkvm.R14, "scan")

	a.Label("root")
	a.Comment("rebuild the Merkle root in-VM and journal it")
	a.Mov(zkvm.R4, zkvm.R14)
	a.Lw(zkvm.R5, zkvm.R0, qCount)
	a.Call("reduce")
	emitJournal(a, zkvm.R4, 0, 8)
	a.Comment("journal matched count and the 64-bit aggregate")
	if q.Agg == query.AggCount {
		// COUNT's result is the matched counter itself; mirror it into
		// the accumulator so Result() is uniform across aggregates.
		a.Mov(zkvm.R12, zkvm.R11)
	}
	for _, r := range []int{zkvm.R11, zkvm.R12, zkvm.R13} {
		a.WriteJournal(r)
	}
	a.HaltCode(0)

	emitReduce(a)
	return a.MustAssemble(), a.Regions()
}

// exprWords appends the entry words e reads to words and returns the
// evaluation-stack depth e needs (see predicate).
func exprWords(e query.Expr, words *[]int) int {
	switch v := e.(type) {
	case *query.Cmp:
		*words = append(*words, v.Field.Word)
		return 1
	case *query.And:
		return max(exprWords(v.L, words), 1+exprWords(v.R, words))
	case *query.Or:
		return max(exprWords(v.L, words), 1+exprWords(v.R, words))
	case *query.Not:
		return exprWords(v.E, words)
	}
	return 0
}

// field returns a register holding field f of the entry at r8: the
// register the word was caught in when that is the value as it stands,
// rd otherwise.
func (g *queryGen) field(rd int, f query.Field) int {
	src, ok := g.held[f.Word]
	if !ok {
		g.a.Lw(rd, zkvm.R8, uint32(f.Word))
		src = rd
	}
	if f.Shift != 0 {
		g.a.Srli(rd, src, f.Shift)
		src = rd
	}
	if f.Mask != 0 {
		g.a.Andi(rd, src, f.Mask)
		src = rd
	}
	return src
}

// predicate leaves e's truth value (0/1) of the entry at r8 in operand
// d of the evaluation stack. Operands past the stack's registers share
// the last one, the earlier value waiting in memory. Scratch: r1.
func (g *queryGen) predicate(e query.Expr, d int) {
	a, rd := g.a, g.eval[min(d, len(g.eval)-1)]
	binary := func(l, r query.Expr, op func(rd, rs1, rs2 int)) {
		g.predicate(l, d)
		if d+1 < len(g.eval) {
			g.predicate(r, d+1)
			op(rd, rd, g.eval[d+1])
			return
		}
		a.Sw(rd, zkvm.R0, qStackBase+uint32(d))
		g.predicate(r, d+1)
		a.Lw(zkvm.R1, zkvm.R0, qStackBase+uint32(d))
		op(rd, rd, zkvm.R1)
	}
	switch v := e.(type) {
	case *query.Cmp:
		src, bound := g.field(rd, v.Field), v.Value
		switch v.Op {
		case query.OpEq, query.OpNe:
			a.Xori(rd, src, bound)
			a.Sltiu(rd, rd, 1)
		case query.OpLe, query.OpGt: // field <= bound is field < bound+1, unless that wraps
			if bound++; bound == 0 {
				a.Li(rd, 1)
				break
			}
			fallthrough
		default:
			a.Sltiu(rd, src, bound)
		}
		if v.Op == query.OpNe || v.Op == query.OpGe || v.Op == query.OpGt {
			a.Xori(rd, rd, 1)
		}
	case *query.And:
		binary(v.L, v.R, a.And)
	case *query.Or:
		binary(v.L, v.R, a.Or)
	case *query.Not:
		g.predicate(v.E, d)
		a.Xori(rd, rd, 1)
	default:
		panic(fmt.Sprintf("guest: unknown expression %T", e))
	}
}

// QueryInput builds the query guest's input tape from a CLog
// snapshot (which must be the canonical sorted entries).
func QueryInput(entries []clog.Entry) []uint32 {
	out := make([]uint32, 0, 1+len(entries)*entryW)
	out = append(out, uint32(len(entries)))
	out = append(out, clog.EntriesWords(entries)...)
	return out
}

// QueryJournal is the decoded public output of a query guest.
type QueryJournal struct {
	NumEntries uint32
	Root       vmtree.Digest
	Matched    uint32
	Lo, Hi     uint32
}

// Result returns the 64-bit aggregate value.
func (j *QueryJournal) Result() uint64 { return uint64(j.Hi)<<32 | uint64(j.Lo) }

// Avg returns the average for AVG queries (0 if nothing matched).
func (j *QueryJournal) Avg() float64 {
	if j.Matched == 0 {
		return 0
	}
	return float64(j.Result()) / float64(j.Matched)
}

// ParseQueryJournal decodes a query guest journal.
func ParseQueryJournal(words []uint32) (*QueryJournal, error) {
	if len(words) != 12 {
		return nil, fmt.Errorf("%w: query journal has %d words, want 12", ErrBadJournal, len(words))
	}
	var j QueryJournal
	rd := wordReader{words: words}
	j.NumEntries = rd.word()
	rd.digest(&j.Root)
	j.Matched = rd.word()
	j.Lo = rd.word()
	j.Hi = rd.word()
	return &j, rd.err
}
