// Package stark implements a FRI-based STARK prover and verifier over
// any air.AIR: the trace columns are low-degree-extended onto a coset,
// committed row-wise in a Merkle tree, the constraints are combined
// into a random-linear composition polynomial whose quotients by the
// appropriate zerofiers must be low degree, and FRI proves that
// degree bound. At each FRI query position the verifier recomputes
// the composition value from opened trace rows, tying the FRI layer-0
// commitment to the trace commitment.
//
// This is the "specialized proof system" of the paper's §7: compared
// with the zkVM's committed-trace argument it removes all machine
// interpretation overhead and carries only polylogarithmic data.
//
// This instance is succinct and sound but not zero-knowledge: trace
// rows opened at query positions are revealed unblinded (adding
// randomizer rows and salting would close that; the §7 ablation only
// needs the throughput/size behaviour).
package stark

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"zkflow/internal/air"
	"zkflow/internal/field"
	"zkflow/internal/fri"
	"zkflow/internal/merkle"
	"zkflow/internal/par"
	"zkflow/internal/poly"
	"zkflow/internal/transcript"
)

// Params configures proving.
type Params struct {
	// FriParams configures the low-degree test.
	FriParams fri.Params
}

// DefaultParams are the parameters E6 proves under; Soundness says
// what they give.
var DefaultParams = Params{FriParams: fri.DefaultParams}

// shift is the LDE coset shift (off the trace subgroup).
var shift = field.Elem(field.Generator)

// RowOpening reveals one LDE trace row with its Merkle path.
type RowOpening struct {
	Pos    int
	Values []field.Elem
	Path   []merkle.Hash
}

// Proof is a complete STARK proof.
type Proof struct {
	N         int // trace length
	TraceRoot merkle.Hash
	Rows      []RowOpening // sorted by Pos, deduplicated
	Fri       *fri.Proof
}

// Size returns the approximate encoded proof size in bytes.
func (p *Proof) Size() int {
	n := 4 + 32
	for i := range p.Rows {
		n += 4 + 8*len(p.Rows[i].Values) + 32*len(p.Rows[i].Path)
	}
	return n + p.Fri.Size()
}

// layout derives the domain geometry for a trace of length n under
// constraint degree d: composition degree bound and LDE domain size.
func layout(n, maxDegree int) (bound, domain int) {
	// Quotient degrees stay below maxDegree*n; round the bound up to
	// a power of two and evaluate at rate 1/4.
	bound = 1 << bits.Len(uint(maxDegree*n-1))
	return bound, 4 * bound
}

// Soundness is the soundness in bits of a proof over a trace of n rows
// under constraints of the given degree: −log2 of the FRI query term
// ((1+ρ)/2)^Queries plus the field term |D|/p, where ρ = bound/|D| =
// 1/4 and |D| come from layout. (1+ρ)/2 is the per-query error FRI
// provably has in the unique-decoding regime; the conjectured ρ per
// query of the list-decoding regime would read about three times
// higher and is not claimed.
func Soundness(params Params, n, degree int) float64 {
	bound, domain := layout(n, degree)
	queries := params.FriParams.Queries
	if queries <= 0 {
		queries = fri.DefaultParams.Queries // what fri.Prove substitutes
	}
	rho := float64(bound) / float64(domain)
	eps := math.Pow((1+rho)/2, float64(queries)) + float64(domain)/float64(field.Modulus)
	return -math.Log2(eps)
}

// rowLeaf serialises one LDE row for commitment.
func rowLeaf(vals []field.Elem) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	return buf
}

// Prove generates a proof that trace (n rows × a.NumColumns() cells,
// n a power of two) satisfies the AIR. The transcript must already
// have absorbed the public statement.
func Prove(a air.AIR, trace [][]field.Elem, tr *transcript.Transcript, params Params) (*Proof, error) {
	n := len(trace)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("stark: trace length %d not a power of two", n)
	}
	cols := a.NumColumns()
	for i := range trace {
		if len(trace[i]) != cols {
			return nil, fmt.Errorf("stark: row %d has %d cells, want %d", i, len(trace[i]), cols)
		}
	}
	bound, domain := layout(n, a.MaxDegree())
	step := domain / n
	// LDE columns, composition chunks and FRI folding fan out across
	// par.Workers(). Proof bytes never depend on the width: every split
	// is exact arithmetic over disjoint index ranges.
	workers := par.Workers()

	// Column-wise LDE, columns fanned out across workers. Every buffer
	// is pooled scratch: the column coefficients are interpolated in
	// place and the coset evaluation lands straight in the pooled
	// domain-size slice the column keeps until the proof is assembled.
	lde := make([][]field.Elem, cols) // lde[c][i]
	par.ForChunks(workers, cols, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			col := field.Slabs.Get(n)
			for i := 0; i < n; i++ {
				col[i] = trace[i][c]
			}
			poly.INTT(col)
			dst := field.Slabs.Get(domain)
			poly.CosetEvalInto(dst, col, shift)
			lde[c] = dst
			field.Slabs.Put(col)
		}
	})

	// Row-wise commitment. Rows are serialised into per-chunk scratch
	// and hashed straight into the tree's arena leaf level — no per-row
	// []field.Elem or []byte intermediates survive the loop (fresh
	// buffers are only built below for the ~q opened query rows).
	rowVals := func(i int) []field.Elem {
		out := make([]field.Elem, cols)
		for c := 0; c < cols; c++ {
			out[c] = lde[c][i]
		}
		return out
	}
	traceTree := merkle.BuildLeaves(domain, func(leaves []merkle.Hash) {
		par.ForChunks(workers, domain, func(lo, hi int) {
			rowBuf := make([]byte, 8*cols)
			for i := lo; i < hi; i++ {
				for c := 0; c < cols; c++ {
					binary.LittleEndian.PutUint64(rowBuf[8*c:], uint64(lde[c][i]))
				}
				leaves[i] = merkle.LeafHash(rowBuf)
			}
		})
	})
	root := traceTree.Root()

	// Composition evaluation over the LDE domain.
	comp := composition(drawConstraints(a, n, root, tr), domain, lde, workers)

	friProof, err := fri.Prove(comp, bound, shift, tr, params.FriParams)
	if err != nil {
		field.Slabs.Put(comp)
		return nil, fmt.Errorf("stark: fri: %w", err)
	}
	// fri.Prove copies everything it keeps (roots, final coefficients,
	// opened values), so the composition scratch can be recycled now.
	field.Slabs.Put(comp)

	// Open the trace rows each FRI query needs: position p, its pair
	// p+domain/2, and both rotations (+step).
	need := map[int]bool{}
	for _, p := range friProof.Positions {
		for _, q := range []int{p, p + domain/2} {
			need[q%domain] = true
			need[(q+step)%domain] = true
		}
	}
	positions := make([]int, 0, len(need))
	for p := range need {
		positions = append(positions, p)
	}
	sort.Ints(positions)
	proof := &Proof{N: n, TraceRoot: root, Fri: friProof}
	for _, p := range positions {
		mp, err := traceTree.Prove(p)
		if err != nil {
			return nil, err
		}
		proof.Rows = append(proof.Rows, RowOpening{Pos: p, Values: rowVals(p), Path: mp.Path})
	}
	// Recycle the LDE columns and the trace tree's arena: the opened
	// rows were copied by rowVals and Prove copies every path.
	for _, col := range lde {
		field.Slabs.Put(col)
	}
	traceTree.Release()
	return proof, nil
}

// constraints is an AIR under one draw of its combination
// coefficients: the one constraint evaluator Prove and Verify share.
type constraints struct {
	a      air.AIR
	n      int
	nLocal int
	g      field.Elem     // generator of the trace subgroup
	alphas []field.Elem   // local, then transition, then boundary
	bnds   []air.Boundary // in a.Boundaries order
	// Boundaries pin many cells on few distinct rows (the chain AIR
	// pins 24 cells on rows {0, n-1}), so each boundary divides by the
	// inverse of x - g^row for its row, one inverse per distinct row:
	// rows holds each distinct g^row, rowOf[k] boundary k's entry.
	rows  []field.Elem
	rowOf []int
}

// drawConstraints binds the trace commitment into the transcript and
// draws the combination coefficients.
func drawConstraints(a air.AIR, n int, root merkle.Hash, tr *transcript.Transcript) *constraints {
	tr.Append("trace-root", root[:])
	tr.AppendUint64("trace-n", uint64(n))
	c := &constraints{a: a, n: n, nLocal: a.NumLocal(), g: field.RootOfUnity(bits.Len(uint(n)) - 1), bnds: a.Boundaries(n)}
	c.alphas = tr.ChallengeElems("alphas", c.nLocal+a.NumTransition()+len(c.bnds))
	seen := map[int]int{}
	for _, b := range c.bnds {
		d, ok := seen[b.Row]
		if !ok {
			d = len(c.rows)
			seen[b.Row] = d
			c.rows = append(c.rows, field.Exp(c.g, uint64(b.Row)))
		}
		c.rowOf = append(c.rowOf, d)
	}
	return c
}

// gLast is g^(n-1), the trace row no transition constraint leaves.
func (c *constraints) gLast() field.Elem { return field.Exp(c.g, uint64(c.n-1)) }

// combine evaluates the random-linear constraint combination at x from
// the trace row at x (curr) and at g·x (next), in alpha order: each
// local value times zfInv = 1/(x^n - 1), each transition value times
// zt = (x - g^(n-1))/(x^n - 1), and boundary k's residue times
// rowInv[rowOf[k]] = 1/(x - g^row). out is the caller's scratch,
// NumLocal+NumTransition long.
func (c *constraints) combine(x field.Elem, curr, next []field.Elem, zfInv, zt field.Elem, rowInv, out []field.Elem) field.Elem {
	c.a.EvalLocal(x, c.n, curr, out[:c.nLocal])
	c.a.EvalTransition(x, c.n, curr, next, out[c.nLocal:])
	var acc field.Elem
	for i, v := range out {
		z := zt
		if i < c.nLocal {
			z = zfInv
		}
		acc = field.Add(acc, field.Mul(c.alphas[i], field.Mul(v, z)))
	}
	for k, b := range c.bnds {
		v := field.Sub(curr[b.Col], b.Value)
		acc = field.Add(acc, field.Mul(c.alphas[len(out)+k], field.Mul(v, rowInv[c.rowOf[k]])))
	}
	return acc
}

// composition evaluates the constraint combination over the whole LDE
// domain (prover side), chunk-parallel across workers, from the
// precomputed inverses: the full-zerofier inverses (periodic with
// period domain/n), x - g^(n-1), and one inverted domain-size vector
// per distinct boundary row. The returned slice is pooled scratch
// owned by the caller (recycle with field.Slabs.Put). Chunks write
// disjoint ranges of the output and inversion is exact and unique, so
// the result is bit-identical at any worker count.
func composition(c *constraints, domain int, lde [][]field.Elem, workers int) []field.Elem {
	n, step := c.n, domain/c.n
	xs := poly.PowerLadder(shift, field.RootOfUnity(bits.Len(uint(domain))-1), domain)
	zfInv := field.Slabs.Get(step)
	for i := 0; i < step; i++ {
		zfInv[i] = field.Sub(field.Exp(xs[i], uint64(n)), field.One)
	}
	field.BatchInv(zfInv)
	lastDen := field.Slabs.Get(domain)
	gLast := c.gLast()
	par.ForChunks(workers, domain, func(lo, hi int) {
		field.SubScalarVec(lastDen[lo:hi], xs[lo:hi], gLast)
	})
	rowDen := make([][]field.Elem, len(c.rows))
	for d, pt := range c.rows {
		den := field.Slabs.Get(domain)
		par.ForChunks(workers, domain, func(lo, hi int) {
			field.SubScalarVec(den[lo:hi], xs[lo:hi], pt)
			field.BatchInv(den[lo:hi])
		})
		rowDen[d] = den
	}

	cols := len(lde)
	comp := field.Slabs.Get(domain)
	par.ForChunks(workers, domain, func(lo, hi int) {
		curr := field.Slabs.Get(cols)
		next := field.Slabs.Get(cols)
		rowInv := make([]field.Elem, len(rowDen))
		out := make([]field.Elem, len(c.alphas)-len(c.bnds))
		for i := lo; i < hi; i++ {
			ni := (i + step) % domain
			for col := range lde {
				curr[col] = lde[col][i]
				next[col] = lde[col][ni]
			}
			for d, den := range rowDen {
				rowInv[d] = den[i]
			}
			zf := zfInv[i%step]
			comp[i] = c.combine(xs[i], curr, next, zf, field.Mul(zf, lastDen[i]), rowInv, out)
		}
		field.Slabs.Put(curr)
		field.Slabs.Put(next)
	})
	field.Slabs.Put(zfInv)
	field.Slabs.Put(lastDen)
	for _, den := range rowDen {
		field.Slabs.Put(den)
	}
	return comp
}

// ErrReject wraps all verification failures.
var ErrReject = errors.New("stark: proof rejected")

// Verify checks the proof. The transcript must have absorbed the same
// public statement as the prover's.
func Verify(a air.AIR, proof *Proof, tr *transcript.Transcript, params Params) error {
	n := proof.N
	if n <= 0 || n&(n-1) != 0 {
		return fmt.Errorf("%w: bad trace length %d", ErrReject, n)
	}
	cols := a.NumColumns()
	bound, domain := layout(n, a.MaxDegree())
	step := domain / n

	c := drawConstraints(a, n, proof.TraceRoot, tr)

	// Authenticate the opened rows once.
	rows := make(map[int][]field.Elem, len(proof.Rows))
	for i := range proof.Rows {
		ro := &proof.Rows[i]
		if ro.Pos < 0 || ro.Pos >= domain || len(ro.Values) != cols {
			return fmt.Errorf("%w: malformed row opening at %d", ErrReject, ro.Pos)
		}
		leaf := merkle.LeafHash(rowLeaf(ro.Values))
		if !merkle.Verify(proof.TraceRoot, leaf, merkle.Proof{Index: ro.Pos, Path: ro.Path}) {
			return fmt.Errorf("%w: trace opening at %d", ErrReject, ro.Pos)
		}
		rows[ro.Pos] = ro.Values
	}

	w := field.RootOfUnity(bits.Len(uint(domain)) - 1)
	gLast := c.gLast()
	rowInv := make([]field.Elem, len(c.rows))
	out := make([]field.Elem, len(c.alphas)-len(c.bnds))

	compAt := func(pos int) (field.Elem, error) {
		curr, ok := rows[pos]
		if !ok {
			return 0, fmt.Errorf("missing trace row %d", pos)
		}
		next, ok := rows[(pos+step)%domain]
		if !ok {
			return 0, fmt.Errorf("missing rotated trace row %d", (pos+step)%domain)
		}
		x := field.Mul(shift, field.Exp(w, uint64(pos)))
		zf := field.Sub(field.Exp(x, uint64(n)), field.One)
		if zf == 0 {
			return 0, fmt.Errorf("query on the trace domain")
		}
		for d, pt := range c.rows {
			den := field.Sub(x, pt)
			if den == 0 {
				return 0, fmt.Errorf("query on a boundary point")
			}
			rowInv[d] = field.Inv(den)
		}
		zfInv := field.Inv(zf)
		return c.combine(x, curr, next, zfInv, field.Mul(zfInv, field.Sub(x, gLast)), rowInv, out), nil
	}

	if err := fri.Verify(proof.Fri, domain, bound, shift, tr, params.FriParams, compAt); err != nil {
		return fmt.Errorf("%w: %v", ErrReject, err)
	}
	return nil
}
