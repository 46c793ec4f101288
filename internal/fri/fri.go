// Package fri implements the FRI (Fast Reed-Solomon IOP of Proximity)
// low-degree test over the Goldilocks field: the prover convinces the
// verifier that a committed evaluation vector over a multiplicative
// coset is (close to) the evaluation of a polynomial of bounded
// degree, in logarithmically many Merkle-committed folding layers.
//
// This is the succinctness engine of the specialized STARK prover
// (paper §7, "specialization proof systems"): unlike the zkVM's
// committed-trace argument, soundness here is cryptographic in the
// query count and the proof carries no trace rows at all.
package fri

import (
	"errors"
	"fmt"
	"math/bits"

	"zkflow/internal/field"
	"zkflow/internal/merkle"
	"zkflow/internal/par"
	"zkflow/internal/poly"
	"zkflow/internal/transcript"
)

// Params configures the protocol.
type Params struct {
	// Queries is the number of spot-check positions; stark.Soundness
	// turns a count into bits of soundness.
	Queries int
	// FinalDegree is the degree bound below which the prover sends
	// the polynomial in the clear instead of folding further.
	FinalDegree int
}

// DefaultParams are the parameters the STARK proves under by default.
var DefaultParams = Params{Queries: 32, FinalDegree: 8}

// Leaf layout: position j of a layer of size n commits the pair
// (evals[j], evals[j+n/2]) so one opening serves one fold.
func leafBytes(a, b field.Elem) []byte {
	var buf [16]byte
	putElem(buf[:8], a)
	putElem(buf[8:], b)
	return buf[:]
}

func putElem(dst []byte, e field.Elem) {
	v := uint64(e)
	for i := 0; i < 8; i++ {
		dst[i] = byte(v >> (8 * i))
	}
}

func getElem(src []byte) (field.Elem, error) {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(src[i]) << (8 * i)
	}
	if v >= field.Modulus {
		return 0, errors.New("fri: non-canonical element")
	}
	return field.Elem(v), nil
}

// LayerOpening is one opened leaf of one layer.
type LayerOpening struct {
	// Lo and Hi are the pair (evals[j], evals[j+n/2]).
	Lo, Hi field.Elem
	Path   []merkle.Hash
}

// QueryProof carries, for one query position, the opened leaf of
// every layer from 0 to the last folded layer.
type QueryProof struct {
	Openings []LayerOpening
}

// Proof is a complete FRI proof.
type Proof struct {
	// Roots are the layer commitments, layer 0 first.
	Roots []merkle.Hash
	// Final is the last polynomial, sent in coefficient form.
	Final poly.Poly
	// Queries are the per-position opening chains.
	Queries []QueryProof
	// Positions records the derived query positions (redundant with
	// the transcript; kept for callers that need them, e.g. the STARK
	// trace openings).
	Positions []int
}

// Size returns the encoded proof size in bytes (8 bytes per element,
// 32 per path hash).
func (p *Proof) Size() int {
	n := 32*len(p.Roots) + 8*len(p.Final)
	for i := range p.Queries {
		for j := range p.Queries[i].Openings {
			n += 16 + 32*len(p.Queries[i].Openings[j].Path)
		}
	}
	return n
}

// buildLayer commits one evaluation layer, hashing leaf pairs straight
// into the tree's arena leaf level (chunk-parallel for wide layers).
func buildLayer(evals []field.Elem, workers int) *merkle.Tree {
	half := len(evals) / 2
	return merkle.BuildLeaves(half, func(leaves []merkle.Hash) {
		par.ForChunks(workers, half, func(lo, hi int) {
			var buf [16]byte
			for j := lo; j < hi; j++ {
				putElem(buf[:8], evals[j])
				putElem(buf[8:], evals[j+half])
				leaves[j] = merkle.LeafHash(buf[:])
			}
		})
	})
}

// foldInto halves the evaluation vector into out:
// f'(x^2) = (f(x)+f(-x))/2 + beta*(f(x)-f(-x))/(2x).
// The 1/x ladder comes from the process-wide cache (built by the same
// chained multiplication the serial loop performed), and the chunks
// write disjoint index ranges, so the output is bit-identical at any
// worker count.
func foldInto(out, evals []field.Elem, shift field.Elem, beta field.Elem, workers int) {
	n := len(evals)
	half := n / 2
	if len(out) != half {
		panic("fri: foldInto length mismatch")
	}
	logN := bits.Len(uint(n)) - 1
	w := field.RootOfUnity(logN)
	inv2 := field.Inv(field.New(2))
	xInv := poly.PowerLadder(field.Inv(shift), field.Inv(w), half)
	par.ForChunks(workers, half, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			fx := evals[j]
			fmx := evals[j+half]
			even := field.Mul(field.Add(fx, fmx), inv2)
			odd := field.Mul(field.Mul(field.Sub(fx, fmx), inv2), xInv[j])
			out[j] = field.Add(even, field.Mul(beta, odd))
		}
	})
}

// Prove runs the commit and query phases over evals (length a power
// of two ≥ 2) claimed to have degree < degreeBound, evaluated over
// the coset shift*<w>. The transcript must already have absorbed the
// statement the caller is binding this proof to.
func Prove(evals []field.Elem, degreeBound int, shift field.Elem, tr *transcript.Transcript, params Params) (*Proof, error) {
	n := len(evals)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fri: domain size %d not a power of two", n)
	}
	if degreeBound <= 0 || degreeBound&(degreeBound-1) != 0 || degreeBound >= n {
		return nil, fmt.Errorf("fri: degree bound %d invalid for domain %d", degreeBound, n)
	}
	if params.Queries <= 0 {
		params = DefaultParams
	}

	// Layer hashing and folding fan out across par.Workers(); folds are
	// exact arithmetic over disjoint index ranges, so the proof bytes are
	// identical at every width.
	workers := par.Workers()

	// Commit phase. Layer 0 is the caller's evals (never recycled or
	// mutated); every subsequent layer lives in a pooled scratch slice
	// recycled after the query phase, and layer trees are arena-built
	// and Released once their openings are proved — steady-state FRI
	// proving allocates only the proof itself.
	var (
		trees  []*merkle.Tree
		layers [][]field.Elem
		proof  Proof
	)
	cur := evals
	curShift := shift
	bound := degreeBound
	for bound > params.FinalDegree && len(cur) > 2 {
		t := buildLayer(cur, workers)
		trees = append(trees, t)
		layers = append(layers, cur)
		root := t.Root()
		proof.Roots = append(proof.Roots, root)
		tr.Append("fri-root", root[:])
		beta := tr.ChallengeElem("fri-beta")
		next := field.Slabs.Get(len(cur) / 2)
		foldInto(next, cur, curShift, beta, workers)
		cur = next
		curShift = field.Square(curShift)
		bound /= 2
	}
	// Final polynomial in the clear, interpolated in place in pooled
	// scratch: cur is that scratch after a fold, and a copy of the
	// caller's evals when no fold happened. Proof.Final owns a copy of
	// the bound-length prefix.
	if len(layers) == 0 {
		cur = append(field.Slabs.Get(n)[:0], cur...)
	}
	final := poly.CosetInterpolateInPlace(cur, curShift)
	proof.Final = append(poly.Poly(nil), final[:bound]...)
	field.Slabs.Put(cur)
	tr.AppendElems("fri-final", proof.Final...)

	// Query phase.
	proof.Positions = tr.ChallengeIndices("fri-query", params.Queries, n/2)
	for _, q := range proof.Positions {
		var qp QueryProof
		j := q
		for li := range layers {
			size := len(layers[li])
			mp, err := trees[li].Prove(j % (size / 2))
			if err != nil {
				return nil, fmt.Errorf("fri: layer %d opening: %w", li, err)
			}
			lo := layers[li][j%(size/2)]
			hi := layers[li][j%(size/2)+size/2]
			qp.Openings = append(qp.Openings, LayerOpening{Lo: lo, Hi: hi, Path: mp.Path})
			j %= size / 2
		}
		proof.Queries = append(proof.Queries, qp)
	}
	// Recycle the commit-phase scratch: fold layers (never layer 0,
	// which the caller owns) and the arena-backed trees. Prove copied
	// every opened path, so nothing in the proof aliases them.
	if len(layers) > 1 {
		for _, l := range layers[1:] {
			field.Slabs.Put(l)
		}
	}
	for _, t := range trees {
		t.Release()
	}
	return &proof, nil
}

// ErrReject is wrapped by all verification failures.
var ErrReject = errors.New("fri: proof rejected")

// Verify checks the proof against the same transcript prefix used by
// the prover. layer0 optionally supplies the caller's expected layer-0
// values: layer0(j) must return the claimed evaluation at domain
// position j for each opened position (the STARK uses this to tie FRI
// to the constraint composition). Pass nil to skip that binding.
func Verify(proof *Proof, n, degreeBound int, shift field.Elem, tr *transcript.Transcript, params Params, layer0 func(pos int) (field.Elem, error)) error {
	if params.Queries <= 0 {
		params = DefaultParams
	}
	if n <= 0 || n&(n-1) != 0 || degreeBound <= 0 || degreeBound >= n {
		return fmt.Errorf("%w: bad parameters", ErrReject)
	}
	// Reconstruct the fold schedule.
	numLayers := 0
	bound := degreeBound
	size := n
	for bound > params.FinalDegree && size > 2 {
		numLayers++
		bound /= 2
		size /= 2
	}
	if len(proof.Roots) != numLayers {
		return fmt.Errorf("%w: %d layers, want %d", ErrReject, len(proof.Roots), numLayers)
	}
	if len(proof.Final) > bound {
		return fmt.Errorf("%w: final polynomial degree %d exceeds bound %d", ErrReject, len(proof.Final)-1, bound)
	}
	betas := make([]field.Elem, numLayers)
	for i, root := range proof.Roots {
		tr.Append("fri-root", root[:])
		betas[i] = tr.ChallengeElem("fri-beta")
	}
	tr.AppendElems("fri-final", proof.Final...)
	positions := tr.ChallengeIndices("fri-query", params.Queries, n/2)
	if len(proof.Queries) != len(positions) {
		return fmt.Errorf("%w: %d queries, want %d", ErrReject, len(proof.Queries), len(positions))
	}

	logN := bits.Len(uint(n)) - 1
	inv2 := field.Inv(field.New(2))
	for qi, q := range positions {
		qp := &proof.Queries[qi]
		if len(qp.Openings) != numLayers {
			return fmt.Errorf("%w: query %d has %d openings", ErrReject, qi, len(qp.Openings))
		}
		j := q
		layerSize := n
		layerShift := shift
		layerLog := logN
		var carry field.Elem
		haveCarry := false
		for li := 0; li < numLayers; li++ {
			half := layerSize / 2
			pos := j % half
			op := &qp.Openings[li]
			leaf := merkle.LeafHash(leafBytes(op.Lo, op.Hi))
			if !merkle.Verify(proof.Roots[li], leaf, merkle.Proof{Index: pos, Path: op.Path}) {
				return fmt.Errorf("%w: query %d layer %d merkle", ErrReject, qi, li)
			}
			if li == 0 && layer0 != nil {
				for _, chk := range []struct {
					pos int
					val field.Elem
				}{{pos, op.Lo}, {pos + half, op.Hi}} {
					want, err := layer0(chk.pos)
					if err != nil {
						return fmt.Errorf("%w: query %d: %v", ErrReject, qi, err)
					}
					if want != chk.val {
						return fmt.Errorf("%w: query %d layer-0 value mismatch at %d", ErrReject, qi, chk.pos)
					}
				}
			}
			if haveCarry {
				got := op.Lo
				if j >= half {
					got = op.Hi
				}
				if got != carry {
					return fmt.Errorf("%w: query %d fold mismatch into layer %d", ErrReject, qi, li)
				}
			}
			// Fold (lo, hi) at position pos.
			w := field.RootOfUnity(layerLog)
			x := field.Mul(layerShift, field.Exp(w, uint64(pos)))
			even := field.Mul(field.Add(op.Lo, op.Hi), inv2)
			odd := field.Mul(field.Mul(field.Sub(op.Lo, op.Hi), inv2), field.Inv(x))
			carry = field.Add(even, field.Mul(betas[li], odd))
			haveCarry = true
			j = pos
			layerSize = half
			layerShift = field.Square(layerShift)
			layerLog--
		}
		// Final check against the clear polynomial.
		w := field.RootOfUnity(layerLog)
		x := field.Mul(layerShift, field.Exp(w, uint64(j)))
		if haveCarry {
			if proof.Final.Eval(x) != carry {
				return fmt.Errorf("%w: query %d final evaluation mismatch", ErrReject, qi)
			}
		} else if layer0 != nil {
			// Degenerate case: no folding layers at all.
			want, err := layer0(j)
			if err != nil {
				return fmt.Errorf("%w: query %d: %v", ErrReject, qi, err)
			}
			if proof.Final.Eval(x) != want {
				return fmt.Errorf("%w: query %d direct final mismatch", ErrReject, qi)
			}
		}
	}
	return nil
}
