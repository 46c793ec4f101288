// Package fastagg is the specialized aggregation prover of the
// paper's §7 ("specialization proof systems"): instead of running
// hash workloads through the general-purpose zkVM, it proves a chain
// of algebraic permutations with a purpose-built STARK — one trace row
// per round, no machine interpretation, no memory argument. The
// paper estimates this path at ~600k hashes/second versus the zkVM's
// minutes-per-thousand; the ablation benchmark (EXPERIMENTS.md E6)
// measures exactly this gap in our implementation.
//
// The statement proven is: output = GPerm-round-chain(input, n-1
// rounds), i.e. (n-1)/gperm.Rounds sequential permutations.
package fastagg

import (
	"errors"
	"fmt"
	"sync"

	"zkflow/internal/air"
	"zkflow/internal/field"
	"zkflow/internal/gperm"
	"zkflow/internal/stark"
	"zkflow/internal/transcript"
)

// Trace columns: 12 state columns s_j followed by 12 cube-helper
// columns u_j = s_j^3 (keeping every constraint at degree ≤ 3).
const (
	stateCols = gperm.Width
	numCols   = 2 * gperm.Width
)

// rcMemoCap bounds the round-constant memo. The prover only ever sees
// step*Rounds distinct arguments (the argument (shift*w^i)^(n/Rounds)
// is periodic over the LDE domain), so the cap exists purely to keep a
// hostile/degenerate AIR reuse pattern from growing the map unboundedly.
const rcMemoCap = 4096

// chainAIR constrains the round chain for a fixed (input, output).
// Its evaluators are safe for concurrent use: the STARK prover calls
// EvalLocal/EvalTransition from multiple goroutines when composition
// runs chunk-parallel.
type chainAIR struct {
	in, out gperm.State
	rc      [gperm.Width]air.PeriodicPoly

	// rcMemo caches the twelve evaluated round-constant polynomials
	// keyed by the shared Horner argument x^(n/Rounds). The argument
	// takes only step*Rounds distinct values over the whole LDE
	// domain, so the memo turns ~96 multiplies per composition point
	// into one map hit.
	rcMu   sync.RWMutex
	rcMemo map[field.Elem]*[gperm.Width]field.Elem
}

func newChainAIR(in, out gperm.State) *chainAIR {
	a := &chainAIR{in: in, out: out}
	for j := 0; j < gperm.Width; j++ {
		vals := make([]field.Elem, gperm.Rounds)
		for r := 0; r < gperm.Rounds; r++ {
			vals[r] = gperm.RoundConstants[r][j]
		}
		a.rc[j] = air.NewPeriodic(vals)
	}
	return a
}

// NumColumns implements air.AIR.
func (a *chainAIR) NumColumns() int { return numCols }

// NumLocal implements air.AIR.
func (a *chainAIR) NumLocal() int { return gperm.Width }

// NumTransition implements air.AIR.
func (a *chainAIR) NumTransition() int { return gperm.Width }

// MaxDegree implements air.AIR: u^2*s terms are degree 3.
func (a *chainAIR) MaxDegree() int { return 3 }

// EvalLocal implements air.AIR: u_j = s_j^3 on every row.
func (a *chainAIR) EvalLocal(_ field.Elem, _ int, row, out []field.Elem) {
	for j := 0; j < gperm.Width; j++ {
		s := row[j]
		out[j] = field.Sub(row[stateCols+j], field.Mul(field.Mul(s, s), s))
	}
}

// EvalTransition implements air.AIR:
// next.s_j = sum_k MDS[j][k] * u_k^2 * s_k + rc_j(row).
func (a *chainAIR) EvalTransition(x field.Elem, n int, curr, next, out []field.Elem) {
	var sbox [gperm.Width]field.Elem
	for k := 0; k < gperm.Width; k++ {
		u := curr[stateCols+k]
		sbox[k] = field.Mul(field.Mul(u, u), curr[k]) // (s^3)^2 * s = s^7
	}
	arg := field.Exp(x, uint64(n/gperm.Rounds))
	rcs := a.rcValues(arg)
	for j := 0; j < gperm.Width; j++ {
		var acc field.Elem
		for k := 0; k < gperm.Width; k++ {
			acc = field.Add(acc, field.Mul(gperm.MDS[j][k], sbox[k]))
		}
		acc = field.Add(acc, rcs[j])
		out[j] = field.Sub(next[j], acc)
	}
}

// rcValues returns the round-constant column values at Horner argument
// arg, memoized. The memo only short-circuits recomputation of exact
// values, so it cannot change a proof bit; the RWMutex keeps it safe
// under the prover's parallel composition scan.
func (a *chainAIR) rcValues(arg field.Elem) *[gperm.Width]field.Elem {
	a.rcMu.RLock()
	v := a.rcMemo[arg]
	a.rcMu.RUnlock()
	if v != nil {
		return v
	}
	vals := new([gperm.Width]field.Elem)
	for j := 0; j < gperm.Width; j++ {
		vals[j] = a.rc[j].EvalWithArg(arg)
	}
	a.rcMu.Lock()
	if a.rcMemo == nil {
		a.rcMemo = make(map[field.Elem]*[gperm.Width]field.Elem, 256)
	}
	if len(a.rcMemo) < rcMemoCap {
		a.rcMemo[arg] = vals
	}
	a.rcMu.Unlock()
	return vals
}

// Boundaries implements air.AIR: the first row is the public input,
// the last row the public output.
func (a *chainAIR) Boundaries(n int) []air.Boundary {
	out := make([]air.Boundary, 0, 2*gperm.Width)
	for j := 0; j < gperm.Width; j++ {
		out = append(out, air.Boundary{Row: 0, Col: j, Value: a.in[j]})
	}
	for j := 0; j < gperm.Width; j++ {
		out = append(out, air.Boundary{Row: n - 1, Col: j, Value: a.out[j]})
	}
	return out
}

// Statement is the public claim of a chain proof.
type Statement struct {
	Input  gperm.State
	Output gperm.State
	N      int // trace length; N-1 rounds were applied
}

// Proof is a chain proof.
type Proof struct {
	Stmt  Statement
	Stark *stark.Proof
}

// Size returns the approximate encoded size in bytes.
func (p *Proof) Size() int { return p.Stark.Size() + 8*2*gperm.Width + 8 }

// ChainOutput runs the round chain natively (the host-speed path the
// prover uses to know the claimed output).
func ChainOutput(input gperm.State, rounds int) gperm.State {
	s := input
	for i := 0; i < rounds; i++ {
		s.Round(i % gperm.Rounds)
	}
	return s
}

// buildTrace materialises the trace: row i holds the state after i
// rounds plus the cube helpers. All cells live in one flat slab (one
// allocation instead of n), with each row's capacity clipped so an
// append can never bleed into its neighbour.
func buildTrace(input gperm.State, n int) [][]field.Elem {
	cells := make([]field.Elem, n*numCols)
	trace := make([][]field.Elem, n)
	s := input
	for i := 0; i < n; i++ {
		row := cells[i*numCols : (i+1)*numCols : (i+1)*numCols]
		copy(row[:stateCols], s[:])
		for j := 0; j < gperm.Width; j++ {
			row[stateCols+j] = field.Mul(field.Mul(s[j], s[j]), s[j])
		}
		trace[i] = row
		if i+1 < n {
			s.Round(i % gperm.Rounds)
		}
	}
	return trace
}

// statementTranscript opens a transcript bound to the chain statement.
func statementTranscript(stmt Statement) *transcript.Transcript {
	tr := transcript.New("fastagg-chain-v1")
	tr.AppendElems("input", stmt.Input[:]...)
	tr.AppendElems("output", stmt.Output[:]...)
	tr.AppendUint64("n", uint64(stmt.N))
	return tr
}

// Prove proves a chain of n-1 rounds from input (n a power of two,
// at least gperm.Rounds). Returns the proof with the computed output
// embedded in its statement.
func Prove(input gperm.State, n int, params stark.Params) (*Proof, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fastagg: trace length %d must be a power of two >= 2", n)
	}
	output := ChainOutput(input, n-1)
	stmt := Statement{Input: input, Output: output, N: n}
	a := newChainAIR(input, output)
	trace := buildTrace(input, n)
	sp, err := stark.Prove(a, trace, statementTranscript(stmt), params)
	if err != nil {
		return nil, err
	}
	return &Proof{Stmt: stmt, Stark: sp}, nil
}

// ErrReject wraps verification failures.
var ErrReject = errors.New("fastagg: proof rejected")

// Verify checks a chain proof against its embedded statement.
func Verify(p *Proof, params stark.Params) error {
	if p.Stmt.N != p.Stark.N {
		return fmt.Errorf("%w: statement length %d, proof length %d", ErrReject, p.Stmt.N, p.Stark.N)
	}
	a := newChainAIR(p.Stmt.Input, p.Stmt.Output)
	if err := stark.Verify(a, p.Stark, statementTranscript(p.Stmt), params); err != nil {
		return fmt.Errorf("%w: %v", ErrReject, err)
	}
	return nil
}
