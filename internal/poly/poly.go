// Package poly provides the polynomial transforms of the STARK prover
// over the Goldilocks field, one entry point each: in-place radix-2
// number-theoretic transforms over a subgroup (NTT, INTT) and over a
// coset (CosetEvalInto, CosetInterpolateInPlace), plus Horner
// evaluation. These are the building blocks of the FRI commitment
// scheme and the STARK prover.
package poly

import (
	"fmt"
	"math/bits"

	"zkflow/internal/field"
)

// Poly is a polynomial in coefficient form, index i holding the
// coefficient of x^i. The zero value is the zero polynomial.
type Poly []field.Elem

// Eval evaluates p at x via Horner's rule.
func (p Poly) Eval(x field.Elem) field.Elem {
	var acc field.Elem
	for i := len(p) - 1; i >= 0; i-- {
		acc = field.Add(field.Mul(acc, x), p[i])
	}
	return acc
}

// bitReverse permutes xs in place by bit-reversed index.
func bitReverse(xs []field.Elem) {
	n := len(xs)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range xs {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			xs[i], xs[j] = xs[j], xs[i]
		}
	}
}

// NTT transforms coefficients to evaluations over the size-len(xs)
// multiplicative subgroup, in place. len(xs) must be a power of two.
func NTT(xs []field.Elem) {
	ntt(xs, false)
}

// INTT transforms evaluations back to coefficients, in place.
func INTT(xs []field.Elem) {
	ntt(xs, true)
}

func ntt(xs []field.Elem, inverse bool) {
	n := len(xs)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("poly: NTT size %d is not a power of two", n))
	}
	logN := bits.TrailingZeros(uint(n))
	t := twiddles(logN)
	tw := t.fwd
	if inverse {
		tw = t.inv
	}
	bitReverse(xs)
	for s := 1; s <= logN; s++ {
		m := 1 << s
		half := m >> 1
		stage := tw[half:m]
		for k := 0; k < n; k += m {
			field.Butterflies(xs[k:k+half], xs[k+half:k+m], stage)
		}
	}
	if inverse {
		field.ScaleVec(xs, xs, t.nInv)
	}
}

// nttSerialReference is the original textbook radix-2 loop, recomputing
// every twiddle with a chained multiply. It is retained solely as the
// differential-test oracle for the table-driven kernel above; the two
// must agree bit-for-bit on every input.
func nttSerialReference(xs []field.Elem, inverse bool) {
	n := len(xs)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("poly: NTT size %d is not a power of two", n))
	}
	logN := bits.TrailingZeros(uint(n))
	root := field.RootOfUnity(logN)
	if inverse {
		root = field.Inv(root)
	}
	bitReverse(xs)
	for s := 1; s <= logN; s++ {
		m := 1 << s
		wm := field.Exp(root, uint64(n/m))
		for k := 0; k < n; k += m {
			w := field.One
			for j := 0; j < m/2; j++ {
				t := field.Mul(w, xs[k+j+m/2])
				u := xs[k+j]
				xs[k+j] = field.Add(u, t)
				xs[k+j+m/2] = field.Sub(u, t)
				w = field.Mul(w, wm)
			}
		}
	}
	if inverse {
		nInv := field.Inv(field.New(uint64(n)))
		for i := range xs {
			xs[i] = field.Mul(xs[i], nInv)
		}
	}
}

// CosetEvalInto writes p's evaluations over the coset shift * <w> of
// power-of-two size len(dst) into dst: dst[i] = p(shift * w^i). The
// coefficient scaling uses the cached power ladder of shift, so the
// steady-state cost is one MulVec plus the NTT — no allocation.
func CosetEvalInto(dst []field.Elem, p Poly, shift field.Elem) {
	size := len(dst)
	if size < len(p) {
		panic("poly: coset domain smaller than polynomial")
	}
	ladder := PowerLadder(field.One, shift, size)
	field.MulVec(dst[:len(p)], p, ladder[:len(p)])
	clear(dst[len(p):])
	NTT(dst)
}

// CosetInterpolateInPlace inverts CosetEvalInto: it transforms evals,
// the evaluations over shift * <w>, in place into the coefficients of
// the polynomial they determine, unscaled through the cached
// inverse-shift ladder, and returns the slice as that polynomial.
func CosetInterpolateInPlace(evals []field.Elem, shift field.Elem) Poly {
	INTT(evals)
	if len(evals) > 0 {
		ladder := PowerLadder(field.One, field.Inv(shift), len(evals))
		field.MulVec(evals, evals, ladder)
	}
	return Poly(evals)
}
