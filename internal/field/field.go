// Package field implements arithmetic in the Goldilocks prime field
// GF(p) with p = 2^64 - 2^32 + 1.
//
// Goldilocks is the field used by modern STARK provers (including the
// engine underneath the RISC Zero recursion circuits): elements fit a
// machine word, multiplication reduces with a handful of shifts because
// 2^64 ≡ 2^32 - 1 (mod p), and the multiplicative group has 2-adicity 32,
// so NTT-friendly subgroups exist for every power-of-two size up to 2^32.
//
// All functions are constant-allocation and safe for concurrent use.
package field

import (
	"fmt"
	"math/bits"

	"zkflow/internal/slab"
)

// Modulus is the Goldilocks prime p = 2^64 - 2^32 + 1.
const Modulus uint64 = 0xffffffff00000001

// TwoAdicity is the largest k such that 2^k divides p-1.
const TwoAdicity = 32

// Generator is a fixed generator of the full multiplicative group GF(p)*.
const Generator uint64 = 7

// Elem is an element of GF(p), stored in canonical form (< Modulus).
type Elem uint64

// Slabs recycles element scratch: the STARK kernel's working sets (LDE
// columns, composition vectors, FRI layers) and the zkVM seal's product
// columns.
var Slabs slab.Pool[Elem]

// New returns x mod p as a field element.
func New(x uint64) Elem {
	if x >= Modulus {
		x -= Modulus
	}
	return Elem(x)
}

// Zero and One are the additive and multiplicative identities.
const (
	Zero Elem = 0
	One  Elem = 1
)

// Uint64 returns the canonical representative of e.
func (e Elem) Uint64() uint64 { return uint64(e) }

// String implements fmt.Stringer.
func (e Elem) String() string { return fmt.Sprintf("%d", uint64(e)) }

// Add returns a + b mod p.
func Add(a, b Elem) Elem {
	s, carry := bits.Add64(uint64(a), uint64(b), 0)
	if carry != 0 || s >= Modulus {
		s -= Modulus
	}
	return Elem(s)
}

// Sub returns a - b mod p.
func Sub(a, b Elem) Elem {
	d, borrow := bits.Sub64(uint64(a), uint64(b), 0)
	if borrow != 0 {
		d += Modulus
	}
	return Elem(d)
}

// Neg returns -a mod p.
func Neg(a Elem) Elem {
	if a == 0 {
		return 0
	}
	return Elem(Modulus - uint64(a))
}

// Mul returns a * b mod p.
func Mul(a, b Elem) Elem {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	return Elem(reduce128(hi, lo))
}

// Reduce128 returns the 128-bit value hi·2^64 + lo mod p, so a sum of
// products accumulated in 128 bits (each below 2^96, say, when one
// factor fits 32 bits) costs one reduction instead of one per term.
func Reduce128(hi, lo uint64) Elem { return Elem(reduce128(hi, lo)) }

// Square returns a^2 mod p.
func Square(a Elem) Elem { return Mul(a, a) }

// reduce128 reduces the 128-bit value hi*2^64 + lo modulo p, using
// 2^64 ≡ 2^32 - 1 and 2^96 ≡ -1 (mod p).
func reduce128(hi, lo uint64) uint64 {
	hiHi := hi >> 32
	hiLo := hi & 0xffffffff
	// t0 = lo - hiHi (mod p): subtracting 2^96-multiples.
	t0, borrow := bits.Sub64(lo, hiHi, 0)
	if borrow != 0 {
		t0 -= 0xffffffff // t0 += p (mod 2^64)
	}
	// t1 = hiLo * (2^32 - 1): the 2^64-multiples folded down.
	t1 := hiLo * 0xffffffff
	res, carry := bits.Add64(t0, t1, 0)
	if carry != 0 {
		res += 0xffffffff // res -= 2^64, += 2^64 mod p
	}
	if res >= Modulus {
		res -= Modulus
	}
	return res
}

// Exp returns base^exp mod p by square-and-multiply.
func Exp(base Elem, exp uint64) Elem {
	result := One
	for exp > 0 {
		if exp&1 == 1 {
			result = Mul(result, base)
		}
		base = Square(base)
		exp >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a, or 0 if a is 0.
// Callers that must reject zero check for it first.
func Inv(a Elem) Elem {
	if a == 0 {
		return 0
	}
	return Exp(a, Modulus-2)
}

// BatchInv replaces each nonzero element of xs with its inverse using
// Montgomery's trick (one field inversion plus 3(n-1) multiplications).
// Zero elements are left as zero.
func BatchInv(xs []Elem) {
	n := len(xs)
	if n == 0 {
		return
	}
	prefix := make([]Elem, n)
	acc := One
	for i, x := range xs {
		prefix[i] = acc
		if x != 0 {
			acc = Mul(acc, x)
		}
	}
	inv := Inv(acc)
	for i := n - 1; i >= 0; i-- {
		if xs[i] == 0 {
			continue
		}
		orig := xs[i]
		xs[i] = Mul(inv, prefix[i])
		inv = Mul(inv, orig)
	}
}

// RootOfUnity returns a primitive 2^logN-th root of unity.
// It panics if logN exceeds the field's two-adicity.
func RootOfUnity(logN int) Elem {
	if logN < 0 || logN > TwoAdicity {
		panic(fmt.Sprintf("field: no 2^%d-th root of unity in Goldilocks", logN))
	}
	// g^((p-1)/2^32) is a primitive 2^32-nd root; square down to order 2^logN.
	root := Exp(Elem(Generator), (Modulus-1)>>TwoAdicity)
	for i := TwoAdicity; i > logN; i-- {
		root = Square(root)
	}
	return root
}

// Pow7 returns a^7, the S-box exponent used by the algebraic permutation
// (gcd(7, p-1) = 1, so x^7 is a bijection of the field).
func Pow7(a Elem) Elem {
	a2 := Square(a)
	a4 := Square(a2)
	return Mul(Mul(a4, a2), a)
}
