// Package query implements the SQL-subset query language clients use
// against the aggregated CLog (paper §4.2):
//
//	SELECT SUM(hop_count) FROM clogs
//	WHERE src_ip = "1.1.1.1" AND dst_ip = "9.9.9.9";
//
// Supported aggregates are COUNT(*), SUM, AVG, MIN and MAX over the
// numeric entry fields; predicates combine field comparisons with
// AND/OR/NOT and parentheses. A parsed Query is deterministic data:
// the guest compiler embeds it into a dedicated zkVM program, so the
// query (and therefore what was proven) is bound into the receipt's
// image ID.
package query

import (
	"fmt"
	"strings"
)

// Field identifies one CLog entry field and how to extract it from
// the entry's guest word encoding.
type Field struct {
	Name  string
	Word  int    // word offset within the entry
	Shift uint32 // right shift after load
	Mask  uint32 // AND mask after shift (0 means none)
	IsIP  bool   // values parse as dotted quads
}

// Fields is the queryable catalog, in entry word order.
var Fields = []Field{
	{Name: "src_ip", Word: 0, IsIP: true},
	{Name: "dst_ip", Word: 1, IsIP: true},
	{Name: "src_port", Word: 2, Shift: 16},
	{Name: "dst_port", Word: 2, Mask: 0xffff},
	{Name: "proto", Word: 3},
	{Name: "packets", Word: 4},
	{Name: "bytes", Word: 5},
	{Name: "dropped", Word: 6},
	{Name: "hop_count", Word: 7},
	{Name: "rtt_sum", Word: 8},
	{Name: "rtt_max", Word: 9},
	{Name: "jitter_sum", Word: 10},
	{Name: "jitter_max", Word: 11},
	{Name: "count", Word: 12},
}

// FieldByName resolves a catalog field.
func FieldByName(name string) (Field, bool) {
	for _, f := range Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var cmpNames = map[CmpOp]string{
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
}

// String implements fmt.Stringer.
func (o CmpOp) String() string { return cmpNames[o] }

// Expr is a predicate over one CLog entry.
type Expr interface {
	// Eval evaluates against an entry's guest words (host-side
	// reference semantics; the guest compiler must agree).
	Eval(words []uint32) bool
	String() string
}

// Cmp compares a field with a constant.
type Cmp struct {
	Field Field
	Op    CmpOp
	Value uint32
}

// Eval implements Expr.
func (c *Cmp) Eval(words []uint32) bool {
	v := words[c.Field.Word] >> c.Field.Shift
	if c.Field.Mask != 0 {
		v &= c.Field.Mask
	}
	switch c.Op {
	case OpEq:
		return v == c.Value
	case OpNe:
		return v != c.Value
	case OpLt:
		return v < c.Value
	case OpLe:
		return v <= c.Value
	case OpGt:
		return v > c.Value
	case OpGe:
		return v >= c.Value
	}
	return false
}

// String implements Expr.
func (c *Cmp) String() string {
	if c.Field.IsIP {
		return fmt.Sprintf("%s %s %q", c.Field.Name, c.Op, ipStr(c.Value))
	}
	return fmt.Sprintf("%s %s %d", c.Field.Name, c.Op, c.Value)
}

func ipStr(v uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", v>>24, (v>>16)&0xff, (v>>8)&0xff, v&0xff)
}

// And is conjunction.
type And struct{ L, R Expr }

// Eval implements Expr.
func (a *And) Eval(words []uint32) bool { return a.L.Eval(words) && a.R.Eval(words) }

// String implements Expr.
func (a *And) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }

// Or is disjunction.
type Or struct{ L, R Expr }

// Eval implements Expr.
func (o *Or) Eval(words []uint32) bool { return o.L.Eval(words) || o.R.Eval(words) }

// String implements Expr.
func (o *Or) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }

// Not is negation.
type Not struct{ E Expr }

// Eval implements Expr.
func (n *Not) Eval(words []uint32) bool { return !n.E.Eval(words) }

// String implements Expr.
func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.E) }

// AggOp is the aggregate operator of a query.
type AggOp int

// Aggregate operators.
const (
	AggCount AggOp = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggNames = map[AggOp]string{
	AggCount: "COUNT", AggSum: "SUM", AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX",
}

// String implements fmt.Stringer.
func (a AggOp) String() string { return aggNames[a] }

// Query is a parsed, validated query.
type Query struct {
	Agg   AggOp
	Field Field // aggregate target; zero value for COUNT(*)
	Where Expr  // nil means all entries
}

// String renders the canonical SQL form.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Agg == AggCount {
		b.WriteString("COUNT(*)")
	} else {
		fmt.Fprintf(&b, "%s(%s)", q.Agg, q.Field.Name)
	}
	b.WriteString(" FROM clogs")
	if q.Where != nil {
		fmt.Fprintf(&b, " WHERE %s", q.Where)
	}
	b.WriteString(";")
	return b.String()
}

// Depth returns the maximum nesting depth of the predicate (bounds
// the guest's evaluation stack).
func (q *Query) Depth() int { return exprDepth(q.Where) }

func exprDepth(e Expr) int {
	switch v := e.(type) {
	case nil:
		return 0
	case *Cmp:
		return 1
	case *And:
		return 1 + max(exprDepth(v.L), exprDepth(v.R))
	case *Or:
		return 1 + max(exprDepth(v.L), exprDepth(v.R))
	case *Not:
		return 1 + exprDepth(v.E)
	}
	return 0
}

// Eval runs the query host-side over entry word slices — the
// reference semantics the guest must reproduce. It returns the number
// of matched entries and the 64-bit aggregate value (for MIN with no
// matches the value is 0xffffffff; for MAX, 0).
func (q *Query) Eval(entries [][]uint32) (matched uint32, result uint64) {
	if q.Agg == AggMin {
		result = 0xffffffff
	}
	for _, w := range entries {
		if q.Where != nil && !q.Where.Eval(w) {
			continue
		}
		matched++
		if q.Agg == AggCount {
			result = uint64(matched)
			continue
		}
		v := uint64(w[q.Field.Word]>>q.Field.Shift) & mask64(q.Field.Mask)
		switch q.Agg {
		case AggSum, AggAvg:
			result += v
		case AggMin:
			if v < result {
				result = v
			}
		case AggMax:
			if v > result {
				result = v
			}
		}
	}
	return matched, result
}

func mask64(m uint32) uint64 {
	if m == 0 {
		return 0xffffffff
	}
	return uint64(m)
}
